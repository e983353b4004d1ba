// The golden store behind the e2e and report golden tests.
//
// Each fixture's emitted C is kept once per distinct content, as
// `<fixture>__<config>.c` where <config> is the first configuration (in
// the harness's order) that emits it. MANIFEST maps every accepted
// (fixture, configuration) pair to its file, one sorted
// `fixture config file` line per pair, so a change in which
// configurations agree is a one-line diff. The `<fixture>__report.json`
// goldens are plain files outside the manifest.
#pragma once

#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <map>
#include <set>
#include <sstream>
#include <string>
#include <utility>
#include <vector>

#ifndef PUREC_REPO_DIR
#error "build must define PUREC_REPO_DIR (the repository root)"
#endif

namespace purec::golden {

/// PUREC_UPDATE_GOLDEN=1: golden tests rewrite the store instead of
/// comparing against it.
inline bool update_golden() {
  const char* env = std::getenv("PUREC_UPDATE_GOLDEN");
  return env != nullptr && env[0] == '1';
}

/// The file's bytes; empty when it cannot be read.
inline std::string read_file(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  if (!in) return {};
  std::ostringstream ss;
  ss << in.rdbuf();
  return std::move(ss).str();
}

/// A (fixture, configuration) pair.
using Key = std::pair<std::string, std::string>;
/// Each pinned pair's file name, in the manifest's line order.
using Manifest = std::map<Key, std::string>;
/// One fixture's (configuration, emitted C) pairs in configuration order.
using Outputs = std::vector<std::pair<std::string, std::string>>;

class Store {
 public:
  explicit Store(std::string dir) : dir_(std::move(dir)) {}

  [[nodiscard]] std::string path(const std::string& file) const {
    return dir_ + "/" + file;
  }

  /// The manifest's well-formed lines; the others go to `malformed`.
  [[nodiscard]] Manifest manifest(
      std::vector<std::string>* malformed = nullptr) const {
    Manifest out;
    std::istringstream lines(read_file(path("MANIFEST")));
    for (std::string line; std::getline(lines, line);) {
      std::istringstream fields(line);
      std::string fixture, config, file, extra;
      if (!(fields >> fixture >> config >> file) || (fields >> extra) ||
          !out.emplace(Key{fixture, config}, file).second) {
        if (malformed != nullptr) malformed->push_back(line);
      }
    }
    return out;
  }

  /// The file pinned for (fixture, config); "" when no line names it.
  [[nodiscard]] std::string file_for(const std::string& fixture,
                                     const std::string& config) const {
    const Manifest m = manifest();
    const auto it = m.find({fixture, config});
    return it == m.end() ? std::string() : it->second;
  }

  /// The golden C pinned for (fixture, config); "" when none is.
  [[nodiscard]] std::string golden_for(const std::string& fixture,
                                       const std::string& config) const {
    const std::string file = file_for(fixture, config);
    return file.empty() ? std::string() : read_file(path(file));
  }

  /// Stores `outputs` as `fixture`'s whole entry: one file per distinct
  /// content, named after its first configuration. Replaces the
  /// fixture's manifest lines and deletes its files that no line names
  /// any more; other fixtures are left as they are.
  void regenerate(const std::string& fixture, const Outputs& outputs) const {
    Manifest m = manifest();
    for (auto it = m.begin(); it != m.end();) {
      it = it->first.first == fixture ? m.erase(it) : std::next(it);
    }
    std::map<std::string, std::string> file_of;  // content -> file
    std::set<std::string> kept;
    for (const auto& [config, text] : outputs) {
      const auto [it, fresh] =
          file_of.emplace(text, fixture + "__" + config + ".c");
      if (fresh) {
        std::ofstream(path(it->second), std::ios::binary) << text;
        kept.insert(it->second);
      }
      m[{fixture, config}] = it->second;
    }
    std::ofstream out(path("MANIFEST"), std::ios::binary);
    for (const auto& [key, file] : m) {
      out << key.first << ' ' << key.second << ' ' << file << '\n';
    }
    for (const auto& entry : std::filesystem::directory_iterator(dir_)) {
      const std::string name = entry.path().filename().string();
      if (owner(name) == fixture && kept.count(name) == 0) {
        std::filesystem::remove(entry.path());
      }
    }
  }

  /// Everything wrong with the store, given the pairs the corpus accepts:
  /// malformed or stray manifest lines, lines naming a missing file or
  /// another fixture's file, accepted pairs with no line, files no line
  /// names, and two files of one fixture with identical bytes.
  [[nodiscard]] std::vector<std::string> problems(
      const std::set<Key>& accepted) const {
    std::vector<std::string> out;
    std::vector<std::string> malformed;
    const Manifest m = manifest(&malformed);
    for (const std::string& line : malformed) {
      out.push_back("malformed MANIFEST line '" + line + "'");
    }
    std::set<std::string> named;
    for (const auto& [key, file] : m) {
      const std::string pair = key.first + " " + key.second;
      named.insert(file);
      if (accepted.count(key) == 0) {
        out.push_back("MANIFEST pins " + pair + ", which the corpus does "
                      "not accept");
      }
      if (owner(file) != key.first) {
        out.push_back("MANIFEST maps " + pair + " to " + file +
                      ", not a file of " + key.first);
      }
      if (!std::filesystem::exists(path(file))) {
        out.push_back("MANIFEST maps " + pair + " to missing " + file);
      }
    }
    for (const Key& key : accepted) {
      if (m.count(key) == 0) {
        out.push_back("no MANIFEST line for " + key.first + " " +
                      key.second);
      }
    }
    std::set<std::string> files;
    for (const auto& entry : std::filesystem::directory_iterator(dir_)) {
      files.insert(entry.path().filename().string());
    }
    std::map<std::pair<std::string, std::string>, std::string> first_of;
    for (const std::string& name : files) {
      if (name == "MANIFEST" || name.ends_with("__report.json")) continue;
      if (named.count(name) == 0) {
        out.push_back(name + " is named by no MANIFEST line");
      }
      const auto [it, fresh] = first_of.emplace(
          std::make_pair(owner(name), read_file(path(name))), name);
      if (!fresh) {
        out.push_back(name + " and " + it->second + " are identical");
      }
    }
    return out;
  }

 private:
  /// The fixture a `<fixture>__<config>.c` file belongs to; "" for any
  /// other name.
  static std::string owner(const std::string& file) {
    const std::size_t cut = file.rfind("__");
    if (cut == std::string::npos || !file.ends_with(".c")) return {};
    return file.substr(0, cut);
  }

  std::string dir_;
};

/// The checked-in store, tests/e2e/golden/.
inline Store repo_store() {
  return Store(std::string(PUREC_REPO_DIR) + "/tests/e2e/golden");
}

}  // namespace purec::golden
