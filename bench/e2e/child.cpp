#include "child.h"

#include <fcntl.h>
#include <poll.h>
#include <signal.h>
#include <sys/prctl.h>
#include <sys/resource.h>
#include <sys/syscall.h>
#include <sys/wait.h>
#include <unistd.h>

#include <cerrno>
#include <chrono>
#include <cstring>
#include <fstream>
#include <string_view>
#include <thread>

extern char** environ;

namespace purec::e2e {

namespace {

using Clock = std::chrono::steady_clock;

double ms_between(Clock::time_point a, Clock::time_point b) {
  return std::chrono::duration<double, std::milli>(b - a).count();
}

bool scrubbed(std::string_view entry) {
  for (const std::string_view prefix : {"OMP_", "GOMP_", "PUREC_"}) {
    if (entry.substr(0, prefix.size()) == prefix) return true;
  }
  return false;
}

std::vector<std::string> child_environment(const ChildSpec& spec) {
  std::vector<std::string> env;
  for (char** entry = environ; *entry != nullptr; ++entry) {
    if (!scrubbed(*entry)) env.emplace_back(*entry);
  }
  for (const auto& [key, value] : spec.env) env.push_back(key + "=" + value);
  return env;
}

/// Aggregate "steal" ticks of /proc/stat: time this virtual machine's
/// CPUs were runnable but the hypervisor ran something else. 0 when the
/// file cannot be read (no hypervisor accounting, no measurement).
long long steal_ticks() {
  std::ifstream stat("/proc/stat");
  std::string label;
  long long field = 0;
  stat >> label;
  for (int i = 0; i < 8 && stat >> field; ++i) {
  }
  return label == "cpu" && stat ? field : 0;
}

void redirect(int fd, const std::string& path) {
  const int target =
      path.empty() ? open("/dev/null", O_WRONLY)
                   : open(path.c_str(), O_WRONLY | O_CREAT | O_TRUNC, 0644);
  if (target < 0) _exit(126);
  if (dup2(target, fd) < 0) _exit(126);
  close(target);
}

/// Blocks until `pid` exits (without reaping it) or `timeout_s` passes.
bool wait_for_exit(pid_t pid, double timeout_s) {
  const Clock::time_point deadline =
      Clock::now() + std::chrono::duration_cast<Clock::duration>(
                         std::chrono::duration<double>(timeout_s));
  const int pidfd = static_cast<int>(syscall(SYS_pidfd_open, pid, 0));
  if (pidfd >= 0) {
    for (;;) {
      const double left_ms = ms_between(Clock::now(), deadline);
      if (left_ms <= 0.0) break;
      pollfd pfd{pidfd, POLLIN, 0};
      const int ready = poll(&pfd, 1, static_cast<int>(left_ms) + 1);
      if (ready > 0) {
        close(pidfd);
        return true;
      }
      if (ready < 0 && errno != EINTR) break;
    }
    close(pidfd);
    return false;
  }
  // Kernels without pidfd: poll the exit state without reaping it.
  while (Clock::now() < deadline) {
    siginfo_t info{};
    if (waitid(P_PID, static_cast<id_t>(pid), &info,
               WEXITED | WNOHANG | WNOWAIT) == 0 &&
        info.si_pid == pid) {
      return true;
    }
    std::this_thread::sleep_for(std::chrono::microseconds(200));
  }
  return false;
}

/// Reaps every member of the group that is (or, as an orphan, became) our
/// child. Call after killing the group.
void reap_group(pid_t pgid) {
  while (waitpid(-pgid, nullptr, 0) > 0 || errno == EINTR) {
  }
}

}  // namespace

std::string ChildResult::describe() const {
  if (!started) return "spawn failed";
  if (timed_out) return "timeout";
  if (exit_code >= 0) return "exit " + std::to_string(exit_code);
  return "signal " + std::to_string(signal);
}

void become_subreaper() { prctl(PR_SET_CHILD_SUBREAPER, 1); }

ChildResult run_child(const ChildSpec& spec) {
  ChildResult result;
  if (spec.argv.empty()) return result;
  // Everything exec needs is built before fork: the child only calls
  // async-signal-safe functions.
  std::vector<std::string> env_strings = child_environment(spec);
  std::vector<char*> envp;
  for (std::string& s : env_strings) envp.push_back(s.data());
  envp.push_back(nullptr);
  std::vector<std::string> argv_strings = spec.argv;
  std::vector<char*> argv;
  for (std::string& s : argv_strings) argv.push_back(s.data());
  argv.push_back(nullptr);
  for (const std::string& path : spec.fresh_paths) unlink(path.c_str());

  const long long steal_before = steal_ticks();
  const Clock::time_point start = Clock::now();
  const pid_t pid = fork();
  if (pid < 0) return result;
  if (pid == 0) {
    setpgid(0, 0);
    redirect(STDOUT_FILENO, spec.stdout_path);
    redirect(STDERR_FILENO, spec.stderr_path);
    execvpe(argv[0], argv.data(), envp.data());
    _exit(127);
  }
  setpgid(pid, pid);  // both sides set it, whichever runs first wins
  result.started = true;

  // The leader stays an unreaped zombie until wait4 below, so its pid, and
  // with it the group id, cannot be reused while the group is killed.
  if (!wait_for_exit(pid, spec.timeout_s)) {
    result.timed_out = true;
    kill(-pid, SIGKILL);
    reap_group(pid);
    result.wall_ms = ms_between(start, Clock::now());
    return result;
  }
  // A well-behaved child leaves nothing behind in its group; anything it
  // did leave is stopped here.
  kill(-pid, SIGKILL);
  int status = 0;
  rusage usage{};
  while (wait4(pid, &status, 0, &usage) < 0 && errno == EINTR) {
  }
  result.wall_ms = ms_between(start, Clock::now());
  result.steal_ms = static_cast<double>(steal_ticks() - steal_before) *
                    1000.0 / static_cast<double>(sysconf(_SC_CLK_TCK));
  result.cpu_ms =
      (static_cast<double>(usage.ru_utime.tv_sec + usage.ru_stime.tv_sec) *
       1e3) +
      (static_cast<double>(usage.ru_utime.tv_usec + usage.ru_stime.tv_usec) /
       1e3);
  if (WIFEXITED(status)) {
    result.exit_code = WEXITSTATUS(status);
  } else if (WIFSIGNALED(status)) {
    result.signal = WTERMSIG(status);
  }
  reap_group(pid);
  return result;
}

}  // namespace purec::e2e
