/* Scenario tests for the C runtimes purecc pastes into its output: the
 * memo table (src/runtime/c/purec_memo.h), the shared stats sink
 * (purec_stats_sink.h) and the --instrument counters (purec_instr.h).
 *
 * The headers are included in the order emitted C includes them, so every
 * byte of runtime text purecc can emit compiles here as C under
 * -Wall -Wextra -Werror, and the static internals (purec_memo_cap, the
 * calling thread's table purec_memo_self, ...) are directly readable. The
 * constructor reads the PUREC_MEMO_* environment, exactly as in an emitted
 * program, so each configuration is one process: tests/CMakeLists.txt
 * registers every scenario as its own CTest entry with the knobs in
 * ENVIRONMENT, and the exit-dump scenarios re-run this binary as a
 * "phase" with the knobs that process needs. The file is built twice:
 * memo_runtime_verify_test defines PUREC_MEMO_VERIFY=1, as
 * --memoize=verify emits it.
 *
 *   memo_runtime_test <scenario> [args...]    exit status 0 = pass
 */
#include <malloc.h>
#include <pthread.h>
#include <signal.h>
#include <stdio.h>
#include <stdlib.h>
#include <string.h>
#include <sys/mman.h>
#include <sys/stat.h>
#include <sys/types.h>
#include <sys/wait.h>
#include <time.h>
#include <unistd.h>

#include "purec_stats_sink.h"
#include "purec_memo.h"
#include "purec_instr.h"

static int failures;

#define CHECK(cond)                                                    \
  do {                                                                 \
    if (!(cond)) {                                                     \
      fprintf(stderr, "%s:%d: check failed: %s\n", __FILE__, __LINE__, \
              #cond);                                                  \
      failures++;                                                      \
    }                                                                  \
  } while (0)

static const char* self_exe; /* argv[0], re-run for phases */

/* ------------------------------------------------------------------ */
/* Keys and values                                                     */
/* ------------------------------------------------------------------ */

/* The fingerprint a thunk for `f(int)` computes for argument i. */
static purec_memo_word key_of(purec_memo_word i, purec_memo_word* kw,
                              unsigned* kn) {
  purec_memo_word key = 0x1234ULL;
  *kn = 0;
  PUREC_MEMO_KEY_INT(key, kw, *kn, i);
  key = purec_memo_mix(key);
  return key == 0 ? 1 : key;
}

/* The pure function being memoized: a hit must return exactly this. */
static purec_memo_word value_of(purec_memo_word i) {
  return purec_memo_mix(i ^ 0xabcdefULL);
}

static int lookup_i(purec_memo_word i, purec_memo_word* out) {
  purec_memo_word kw[1];
  unsigned kn;
  purec_memo_word key = key_of(i, kw, &kn);
  return purec_memo_lookup(key, kw, kn, out);
}

static int store_i(purec_memo_word i, purec_memo_word value) {
  purec_memo_word kw[1];
  unsigned kn;
  purec_memo_word key = key_of(i, kw, &kn);
  return purec_memo_store(key, kw, kn, value, 1);
}

typedef struct {
  unsigned long long hits, misses, evictions, wrong;
} tally;

/* One memoized call of value_of(i): probe, and on a miss compute and
 * publish. A hit carrying anything but value_of(i) counts as wrong. */
static purec_memo_word serve(purec_memo_word i, tally* t) {
  purec_memo_word out = 0;
  if (lookup_i(i, &out)) {
    t->hits++;
    if (out != value_of(i)) t->wrong++;
    return out;
  }
  t->misses++;
  if (store_i(i, value_of(i))) t->evictions++;
  return value_of(i);
}

/* Slots of the calling thread's table whose tag is `key`. */
static int count_resident(purec_memo_word key) {
  const purec_memo_table* t = purec_memo_self;
  purec_memo_word i;
  int n = 0;
  for (i = 0; t != 0 && i <= t->mask; i++) {
    if (t->slots[i].tag == key) n++;
  }
  return n;
}

/* Slots in the calling thread's table; 0 before its first store. */
static purec_memo_word table_slots(void) {
  return purec_memo_self == 0 ? 0 : purec_memo_self->mask + 1;
}

/* ------------------------------------------------------------------ */
/* In-process scenarios                                                */
/* ------------------------------------------------------------------ */

static void scenario_roundtrip(void) {
  purec_memo_word out = 0, kw[2], key = 0x77ULL, word = 0;
  unsigned kn = 0;
  float f = -2.75f;
  double d = 0.1;
  CHECK(purec_memo_ready);
  CHECK(!lookup_i(1, &out));
  CHECK(purec_memo_self == 0); /* a lookup creates no table */
  CHECK(store_i(1, 42) == 0);
  CHECK(table_slots() == 256);
  CHECK(lookup_i(1, &out) && out == 42);
  CHECK(!lookup_i(2, &out));
  /* Floating-point arguments and results travel as bit patterns. */
  PUREC_MEMO_KEY_F32(key, kw, kn, f);
  PUREC_MEMO_KEY_F64(key, kw, kn, d);
  key = purec_memo_mix(key);
  CHECK(kn == 2);
  CHECK(purec_memo_store(key, kw, kn, PUREC_MEMO_PACK_F64(d * f), 1) == 0);
  CHECK(purec_memo_lookup(key, kw, kn, &word));
  CHECK(PUREC_MEMO_UNPACK_F64(word) == d * f);
  CHECK(purec_memo_store(key ^ 1, kw, kn, PUREC_MEMO_PACK_F32(f), 1) == 0);
  CHECK(purec_memo_lookup(key ^ 1, kw, kn, &word));
  CHECK(PUREC_MEMO_UNPACK_F32(word) == f);
}

static void scenario_idempotent(void) {
  purec_memo_word kw[1], out = 0;
  unsigned kn;
  purec_memo_word key = key_of(7, kw, &kn);
  CHECK(store_i(7, 7) == 0);
  CHECK(store_i(7, 7) == 0);
  CHECK(lookup_i(7, &out) && out == 7);
  CHECK(count_resident(key) == 1);
}

static void scenario_capacity_one(void) {
  purec_memo_word out = 0;
  CHECK(purec_memo_cap == 1);
  CHECK(purec_memo_probe == 1);
  CHECK(store_i(1, 11) == 0);
  CHECK(table_slots() == 1);
  CHECK(lookup_i(1, &out) && out == 11);
  /* The single slot is recycled: the old key is gone, never wrong. */
  CHECK(store_i(2, 22) == 1);
  CHECK(lookup_i(2, &out) && out == 22);
  CHECK(!lookup_i(1, &out));
}

static void expect_cap_knob(const char* value, purec_memo_word want) {
  setenv("PUREC_MEMO_CAP", value, 1);
  if (purec_memo_env("PUREC_MEMO_CAP", 65536) != want) {
    fprintf(stderr, "PUREC_MEMO_CAP=\"%s\" parsed wrong\n", value);
    failures++;
  }
}

static void scenario_env_parse(void) {
  expect_cap_knob("128", 128);
  expect_cap_knob("-1", 1ULL << 24); /* strtoull wraps to ULLONG_MAX */
  expect_cap_knob("999999999999999999", 1ULL << 24);
  expect_cap_knob("garbage", 65536);
  expect_cap_knob("12x", 65536);
  expect_cap_knob("0", 65536);
  expect_cap_knob("", 65536);
  unsetenv("PUREC_MEMO_CAP");
  CHECK(purec_memo_env("PUREC_MEMO_CAP", 65536) == 65536);
  /* The constructor saw no knob: the default per-thread bound. */
  CHECK(purec_memo_cap == 65536);
  CHECK(purec_memo_probe == 8);
  CHECK(purec_memo_pow2(1) == 1);
  CHECK(purec_memo_pow2(100) == 64); /* PUREC_MEMO_CAP=100: 64 slots */
  CHECK(purec_memo_pow2(1ULL << 24) == 1ULL << 24);
  CHECK(purec_memo_pow2(~0ULL) == 1ULL << 63);
}

static void scenario_eviction(void) {
  tally t = {0, 0, 0, 0};
  purec_memo_word i;
  int round;
  for (round = 0; round < 4; round++) {
    for (i = 0; i < 4096; i++) serve(i, &t);
  }
  CHECK(t.wrong == 0);
  CHECK(t.evictions > 0);
}

typedef struct {
  purec_memo_word offset;
  tally t;
} hammer_worker;

static void* hammer_run(void* arg) {
  hammer_worker* w = (hammer_worker*)arg;
  purec_memo_word cursor = w->offset, i;
  int round;
  for (round = 0; round < 200; round++) {
    for (i = 0; i < 1024; i += 8) serve((cursor + i) % 1024, &w->t);
    cursor++;
  }
  return 0;
}

/* 8 threads of mixed hit/miss/evict traffic, each over its own small
 * table: a hit must return the value stored for its key. */
static void scenario_hammer(void) {
  pthread_t threads[8];
  hammer_worker workers[8];
  tally sum = {0, 0, 0, 0};
  int t;
  for (t = 0; t < 8; t++) {
    memset(&workers[t], 0, sizeof workers[t]);
    workers[t].offset = (purec_memo_word)t * 31;
    CHECK(pthread_create(&threads[t], 0, hammer_run, &workers[t]) == 0);
  }
  for (t = 0; t < 8; t++) {
    CHECK(pthread_join(threads[t], 0) == 0);
    sum.hits += workers[t].t.hits;
    sum.misses += workers[t].t.misses;
    sum.evictions += workers[t].t.evictions;
    sum.wrong += workers[t].t.wrong;
  }
  CHECK(sum.wrong == 0);
  CHECK(sum.hits > 0);
  CHECK(sum.misses > 0);
  CHECK(sum.evictions > 0);
}

/* The same workload cached and uncached folds to the same checksum, with
 * or without capacity pressure. */
static void scenario_checksum(void) {
  tally t = {0, 0, 0, 0};
  purec_memo_word cached = 0, uncached = 0, i;
  int round;
  for (round = 0; round < 3; round++) {
    for (i = 0; i < 512; i++) {
      cached = purec_memo_mix(cached ^ serve(i % 64, &t));
      uncached = purec_memo_mix(uncached ^ value_of(i % 64));
    }
  }
  CHECK(cached == uncached);
  CHECK(t.wrong == 0);
}

static void scenario_verify_alias(void) {
  purec_memo_word kw[1], out = 0;
  unsigned kn;
  const purec_memo_word fp = key_of(1, kw, &kn);
  const purec_memo_word a[2] = {11, 12}, b[2] = {21, 22};
  CHECK(PUREC_MEMO_VERIFY);
  /* Two distinct tuples forced onto one fingerprint. */
  CHECK(purec_memo_store(fp, a, 2, 100, 1) == 0);
  CHECK(purec_memo_lookup(fp, a, 2, &out) && out == 100);
  CHECK(!purec_memo_lookup(fp, b, 2, &out)); /* the alias misses */
  /* Publishing the alias replaces the resident entry, so b does not miss
   * forever; a misses in turn. */
  CHECK(purec_memo_store(fp, b, 2, 200, 1) == 1);
  CHECK(purec_memo_lookup(fp, b, 2, &out) && out == 200);
  CHECK(!purec_memo_lookup(fp, a, 2, &out));
}

static void scenario_verify_wide(void) {
  purec_memo_word wide[PUREC_MEMO_VWORDS + 1], out = 0, key = 0x99ULL;
  unsigned kn = 0, w;
  CHECK(PUREC_MEMO_VERIFY);
  for (w = 0; w < PUREC_MEMO_VWORDS + 1; w++) {
    PUREC_MEMO_KEY_INT(key, wide, kn, w);
  }
  key = purec_memo_mix(key);
  /* An unverifiable tuple is never cached: a permanent, safe miss. */
  CHECK(purec_memo_store(key, wide, kn, 5, 1) == 0);
  CHECK(!purec_memo_lookup(key, wide, kn, &out));
  CHECK(count_resident(key) == 0);
}

static void scenario_verify_off(void) {
  purec_memo_word kw[1], out = 0;
  unsigned kn;
  const purec_memo_word fp = key_of(3, kw, &kn);
  const purec_memo_word a[1] = {1}, b[1] = {2};
  CHECK(!PUREC_MEMO_VERIFY);
  CHECK(purec_memo_store(fp, a, 1, 33, 1) == 0);
  /* Without verify the fingerprint is the whole key: b "hits". */
  CHECK(purec_memo_lookup(fp, b, 1, &out) && out == 33);
}

/* Every key 0..n-1 hits with its exact value. */
static void expect_resident(purec_memo_word n) {
  purec_memo_word i, out;
  int missing = 0;
  for (i = 0; i < n; i++) {
    out = 0;
    if (!lookup_i(i, &out)) {
      missing++;
    } else {
      CHECK(out == value_of(i));
    }
  }
  CHECK(missing == 0);
}

/* ------------------------------------------------------------------ */
/* Read-mostly hits and clock eviction order                           */
/* ------------------------------------------------------------------ */

static void wrote_sealed(int sig) {
  static const char msg[] = "memo_runtime_test: a hit wrote to the table\n";
  (void)sig;
  if (write(2, msg, sizeof msg - 1) < 0) _exit(2);
  _exit(1);
}

/* Warm hits write nothing. Once a first round of hits has set every clock
 * bit, the thread's table (header, slots, verify records and clock bits,
 * one allocation) moves into a mapping sealed read-only: a second round
 * of hits must neither fault nor change a byte of it, so even a store of
 * an unchanged value fails the scenario. */
static void scenario_hit_readonly(void) {
  purec_memo_table* table;
  purec_memo_table* copy;
  unsigned char *base, *sealed, *snapshot;
  size_t bytes;
  tally t = {0, 0, 0, 0};
  purec_memo_word i;
  for (i = 0; i < 256; i++) serve(i, &t);
  CHECK(t.misses == 256);
  expect_resident(256);
  table = purec_memo_self;
  base = (unsigned char*)table;
  bytes = (size_t)((table->ref + table->mask + 1) - base);
  sealed = (unsigned char*)mmap(0, bytes, PROT_READ | PROT_WRITE,
                                MAP_PRIVATE | MAP_ANONYMOUS, -1, 0);
  CHECK(sealed != MAP_FAILED);
  if (sealed == MAP_FAILED) return;
  memcpy(sealed, table, bytes);
  copy = (purec_memo_table*)sealed;
  copy->slots =
      (purec_memo_slot*)(sealed + ((unsigned char*)table->slots - base));
  copy->vwords =
      (purec_memo_word*)(sealed + ((unsigned char*)table->vwords - base));
  copy->ref = sealed + (table->ref - base);
  snapshot = (unsigned char*)malloc(bytes);
  CHECK(snapshot != 0);
  if (snapshot != 0) memcpy(snapshot, sealed, bytes);
  purec_memo_self = copy;
  CHECK(mprotect(sealed, bytes, PROT_READ) == 0);
  signal(SIGSEGV, wrote_sealed);
  expect_resident(256);
  signal(SIGSEGV, SIG_DFL);
  CHECK(snapshot != 0 && memcmp(sealed, snapshot, bytes) == 0);
  purec_memo_self = table;
  munmap(sealed, bytes);
  free(snapshot);
}

/* A fingerprint that lands in slot `slot` of an 8-slot table; `gen`
 * tells apart keys for the same slot. */
static purec_memo_word slot_key(purec_memo_word slot, purec_memo_word gen) {
  return (gen + 1) * 8 + slot;
}

/* Clock second chance in an 8-slot table (one probe window):
 * a key hit since its insert survives the next eviction that sweeps past
 * it, the unhit neighbour after it is evicted instead, and the spent bit
 * leaves the key evictable by the sweep after that. */
static void scenario_second_chance(void) {
  purec_memo_word j, out = 0;
  CHECK(purec_memo_cap == 8);
  CHECK(purec_memo_probe == 8);
  for (j = 0; j < 8; j++) {
    CHECK(purec_memo_store(slot_key(j, 0), 0, 0, j, 1) == 0);
  }
  CHECK(table_slots() == 8); /* at the cap: a full window evicts */
  CHECK(purec_memo_lookup(slot_key(0, 0), 0, 0, &out) && out == 0);
  CHECK(purec_memo_lookup(slot_key(4, 0), 0, 0, &out) && out == 4);
  /* The sweep from slot 0 spares the hit key 0 and evicts key 1. */
  CHECK(purec_memo_store(slot_key(0, 1), 0, 0, 100, 1) == 1);
  CHECK(count_resident(slot_key(0, 0)) == 1);
  CHECK(count_resident(slot_key(1, 0)) == 0);
  /* The sweep from slot 4 spares the hit key 4 and evicts key 5. */
  CHECK(purec_memo_store(slot_key(4, 1), 0, 0, 104, 1) == 1);
  CHECK(count_resident(slot_key(4, 0)) == 1);
  CHECK(count_resident(slot_key(5, 0)) == 0);
  /* Key 0 spent its second chance: the next sweep from slot 0 takes it. */
  CHECK(purec_memo_store(slot_key(0, 2), 0, 0, 200, 1) == 1);
  CHECK(count_resident(slot_key(0, 0)) == 0);
  CHECK(count_resident(slot_key(4, 0)) == 1);
  for (j = 2; j < 8; j++) {
    if (j == 4 || j == 5) continue;
    CHECK(purec_memo_lookup(slot_key(j, 0), 0, 0, &out) && out == j);
  }
  CHECK(purec_memo_lookup(slot_key(0, 1), 0, 0, &out) && out == 100);
  CHECK(purec_memo_lookup(slot_key(4, 1), 0, 0, &out) && out == 104);
  CHECK(purec_memo_lookup(slot_key(0, 2), 0, 0, &out) && out == 200);
}

/* ------------------------------------------------------------------ */
/* Per-thread tables: growth, privacy, thread exit                     */
/* ------------------------------------------------------------------ */

/* A table starts at 1024 slots and doubles while a store finds its
 * window full, up to the cap (4096 in tests/CMakeLists.txt). Every entry,
 * with its verify record under verify, survives each doubling; at the
 * cap a full window evicts instead. */
static void scenario_growth(void) {
  tally t = {0, 0, 0, 0};
  purec_memo_word i, slots = 1024;
  unsigned doublings = 0;
  CHECK(purec_memo_cap == 4096);
  for (i = 0; i < 16384; i++) {
    serve(i, &t);
    if (table_slots() != slots) {
      CHECK(table_slots() == 2 * slots);
      slots = table_slots();
      doublings++;
      /* Until the cap nothing was evicted: every key so far hits. */
      CHECK(t.evictions == 0);
      expect_resident(i + 1);
    }
  }
  CHECK(doublings == 2);
  CHECK(slots == 4096);
  CHECK(t.evictions > 0);
  CHECK(t.wrong == 0);
}

typedef struct {
  int missed, hit, wrong;
} private_probe;

/* Thread B's view of the 64 keys the main thread stored. */
static void* private_run(void* arg) {
  private_probe* p = (private_probe*)arg;
  purec_memo_word i, out;
  for (i = 0; i < 64; i++) {
    if (!lookup_i(i, &out)) p->missed++;
  }
  for (i = 0; i < 64; i++) store_i(i, value_of(i));
  for (i = 0; i < 64; i++) {
    out = 0;
    if (lookup_i(i, &out)) p->hit++;
    if (out != value_of(i)) p->wrong++;
  }
  return 0;
}

/* A key one thread stored misses in another until that thread stores it
 * too; then both hit with the exact value. */
static void scenario_private(void) {
  private_probe b = {0, 0, 0};
  pthread_t thread;
  purec_memo_word i;
  for (i = 0; i < 64; i++) CHECK(store_i(i, value_of(i)) == 0);
  expect_resident(64);
  CHECK(pthread_create(&thread, 0, private_run, &b) == 0);
  CHECK(pthread_join(thread, 0) == 0);
  CHECK(b.missed == 64);
  CHECK(b.hit == 64);
  CHECK(b.wrong == 0);
  expect_resident(64);
}

/* One short-lived thread: fill a table through two doublings, then exit. */
static void* exit_run(void* arg) {
  tally t = {0, 0, 0, 0};
  purec_memo_word i;
  int* wrong = (int*)arg;
  for (i = 0; i < 3000; i++) serve(i, &t);
  for (i = 0; i < 3000; i++) serve(i, &t);
  *wrong = t.wrong != 0 || t.hits == 0 || table_slots() < 4096;
  return 0;
}

/* A table dies with its thread. 64 threads each leave a table of at
 * least 4096 slots behind; had none been freed, the heap would hold them
 * all after the joins (LSan in the sanitizer lane reports each one). */
static void scenario_thread_exit(void) {
  pthread_t threads[8];
  int wrong[8];
  struct mallinfo2 before, after;
  int round, t;
  before = mallinfo2();
  for (round = 0; round < 8; round++) {
    for (t = 0; t < 8; t++) {
      wrong[t] = 1;
      CHECK(pthread_create(&threads[t], 0, exit_run, &wrong[t]) == 0);
    }
    for (t = 0; t < 8; t++) {
      CHECK(pthread_join(threads[t], 0) == 0);
      CHECK(wrong[t] == 0);
    }
  }
  after = mallinfo2();
  /* 64 tables of 4096 slots would be over 4 MiB, in heap chunks
   * (uordblks) or, past the mmap threshold, mapped blocks (hblkhd). */
  CHECK(after.uordblks + after.hblkhd <
        before.uordblks + before.hblkhd + (1u << 20));
  CHECK(purec_memo_self == 0); /* the main thread never stored */
}

/* ------------------------------------------------------------------ */
/* Process and file helpers                                            */
/* ------------------------------------------------------------------ */

/* Runs this binary as `phase` with NAME, VALUE pairs from the
 * null-terminated `env` added to its environment; the phase must pass. */
static void run_phase(const char* phase, const char* const* env) {
  int status = 0;
  pid_t pid;
  fflush(stdout);
  fflush(stderr);
  pid = fork();
  if (pid == 0) {
    for (; env[0] != 0; env += 2) setenv(env[0], env[1], 1);
    execl(self_exe, self_exe, phase, (char*)0);
    _exit(127);
  }
  if (pid < 0 || waitpid(pid, &status, 0) != pid || !WIFEXITED(status) ||
      WEXITSTATUS(status) != 0) {
    fprintf(stderr, "phase %s failed (status %d)\n", phase, status);
    failures++;
  }
}

static long file_size(const char* path) {
  struct stat st;
  return stat(path, &st) == 0 ? (long)st.st_size : -1;
}

/* The whole file, NUL-terminated (caller frees); null if unreadable. */
static char* slurp(const char* path, long* size) {
  FILE* f = fopen(path, "rb");
  char* text;
  *size = file_size(path);
  if (f == 0 || *size < 0) {
    if (f != 0) fclose(f);
    return 0;
  }
  text = (char*)calloc((size_t)*size + 1, 1);
  if (text != 0 && fread(text, 1, (size_t)*size, f) != (size_t)*size) {
    free(text);
    text = 0;
  }
  fclose(f);
  return text;
}

static int count_of(const char* text, const char* needle) {
  int n = 0;
  const char* at = text;
  while (text != 0 && (at = strstr(at, needle)) != 0) {
    n++;
    at += strlen(needle);
  }
  return n;
}

/* ------------------------------------------------------------------ */
/* Exit-time dumps: PUREC_MEMO_STATS and --instrument                  */
/* ------------------------------------------------------------------ */

static int square(int x) { return x * x; }

/* The thunk shape purecc emits for `pure T fn(T)`. */
#define THUNK(fn, T, id)                                                \
  static purec_memo_stats_entry purec_memo_stats_##fn = {.name = #fn}; \
  __attribute__((constructor)) static void                             \
      purec_memo_stats_##fn##_register(void) {                         \
    purec_memo_stats_register(&purec_memo_stats_##fn);                 \
  }                                                                    \
  static __thread purec_memo_gate purec_memo_gate_##fn;                \
  static T purec_memo_##fn(T purec_a0) {                               \
    purec_memo_word purec_key = id;                                    \
    purec_memo_word purec_word;                                        \
    purec_memo_word purec_kw[1];                                       \
    unsigned purec_kn = 0;                                             \
    T purec_result;                                                    \
    if (purec_memo_gate_skip(&purec_memo_gate_##fn)) {                 \
      PUREC_MEMO_STAT_INC(purec_memo_stats_##fn, bypassed);            \
      return fn(purec_a0);                                             \
    }                                                                  \
    PUREC_MEMO_KEY_INT(purec_key, purec_kw, purec_kn, purec_a0);       \
    purec_key = purec_memo_mix(purec_key);                             \
    if (purec_key == 0) purec_key = 1;                                 \
    if (purec_memo_lookup(purec_key, purec_kw, purec_kn, &purec_word)) { \
      PUREC_MEMO_STAT_INC(purec_memo_stats_##fn, hits);                \
      return (T)(purec_word);                                          \
    }                                                                  \
    purec_memo_gate_##fn.misses++;                                     \
    PUREC_MEMO_STAT_INC(purec_memo_stats_##fn, misses);                \
    purec_result = fn(purec_a0);                                       \
    if (purec_memo_store(purec_key, purec_kw, purec_kn,                \
                         (purec_memo_word)(purec_result),              \
                         purec_memo_gate_##fn.backoff == 0))           \
      PUREC_MEMO_STAT_INC(purec_memo_stats_##fn, evictions);           \
    return purec_result;                                               \
  }

THUNK(square, int, 0x5151ULL)

/* phase_stats: 100 calls over 10 arguments. */
static void phase_stats(void) {
  int i;
  for (i = 0; i < 100; i++) {
    CHECK(purec_memo_square(i % 10) == square(i % 10));
  }
}

/* phase_stats_threads: STATS_THREADS pthreads make STATS_CALLS memoized
 * calls each over 64 arguments, each thread counting into its own cell. */
#define STATS_THREADS 4
#define STATS_CALLS 20000

typedef struct {
  int offset, wrong;
  unsigned cell;
} stats_worker;

static void* stats_run(void* arg) {
  stats_worker* w = (stats_worker*)arg;
  int i;
  for (i = 0; i < STATS_CALLS; i++) {
    int x = (i + w->offset) % 64;
    if (purec_memo_square(x) != square(x)) w->wrong++;
  }
  w->cell = purec_memo_stat_index();
  return 0;
}

static void phase_stats_threads(void) {
  pthread_t threads[STATS_THREADS];
  stats_worker workers[STATS_THREADS];
  int t, u;
  for (t = 0; t < STATS_THREADS; t++) {
    memset(&workers[t], 0, sizeof workers[t]);
    workers[t].offset = t * 17;
    CHECK(pthread_create(&threads[t], 0, stats_run, &workers[t]) == 0);
  }
  for (t = 0; t < STATS_THREADS; t++) {
    CHECK(pthread_join(threads[t], 0) == 0);
    CHECK(workers[t].wrong == 0);
  }
  for (t = 0; t < STATS_THREADS; t++) {
    for (u = 0; u < t; u++) CHECK(workers[t].cell != workers[u].cell);
  }
}

/* The striped counters lose no count: the dumped hits + misses equal the
 * calls the threads made. */
static void scenario_stats_threads(const char* path) {
  const char* env_on[] = {"PUREC_MEMO_STATS", "1", "PUREC_STATS_FILE", path,
                          0};
  unsigned long long hits = 0, misses = 0, evictions = 0;
  long size;
  char *text, *line;
  unlink(path);
  run_phase("phase_stats_threads", env_on);
  text = slurp(path, &size);
  line = text == 0 ? 0 : strstr(text, "purec-memo[square]");
  CHECK(count_of(text, "\n") == 2 && line != 0 &&
        sscanf(line,
               "purec-memo[square] hits=%llu misses=%llu evictions=%llu",
               &hits, &misses, &evictions) == 3);
  CHECK(hits + misses == (unsigned long long)STATS_THREADS * STATS_CALLS);
  CHECK(misses >= 64);
  CHECK(hits > 0);
  CHECK(evictions == 0);
  free(text);
  unlink(path);
}

static void scenario_stats_dump(const char* path) {
  const char* env_on[] = {"PUREC_MEMO_STATS", "1", "PUREC_STATS_FILE", path,
                          0};
  const char* env_off[] = {"PUREC_MEMO_STATS", "0", "PUREC_STATS_FILE",
                           path, 0};
  long size;
  char* text;
  unlink(path);
  run_phase("phase_stats", env_on);
  /* One line per registered thunk: square and the idle gated. */
  text = slurp(path, &size);
  CHECK(count_of(text, "\n") == 2);
  CHECK(count_of(text, "purec-memo[square] hits=90 misses=10 evictions=0 "
                       "bypassed=0\n") == 1);
  CHECK(count_of(text, "purec-memo[gated] hits=0 misses=0 evictions=0 "
                       "bypassed=0\n") == 1);
  free(text);
  /* With the knob off the counters are dead branches: no dump at all. */
  unlink(path);
  run_phase("phase_stats", env_off);
  CHECK(file_size(path) == -1);
}

/* ------------------------------------------------------------------ */
/* The admission gate                                                  */
/* ------------------------------------------------------------------ */

/* The gated callee: value_of, counting the calling thread's calls. */
static __thread unsigned long long gated_calls;
static purec_memo_word gated(purec_memo_word i) {
  gated_calls++;
  return value_of(i);
}

THUNK(gated, purec_memo_word, 0x6a7eULL)

typedef struct {
  unsigned long long calls, bypassed, wrong;
  unsigned long long first_bypass; /* call index; ~0 before one */
  unsigned backoff_max, backoff_steps_bad, windows_at_cap;
} gate_log;

/* Whether the calling thread's last thunk call skipped the table: a
 * bypass stretch keeps `left` negative, and its last call sets it to
 * PUREC_MEMO_WINDOW for the next window. */
static int gate_bypassing(void) {
  return purec_memo_gate_gated.left < 0 ||
         purec_memo_gate_gated.left == (int)PUREC_MEMO_WINDOW;
}

/* One memoized call of gated(i), logged: the value must be exact, and
 * backoff may only climb by one, at the start of a bypass stretch. */
static void gate_call(purec_memo_word i, gate_log* log) {
  const purec_memo_gate before = purec_memo_gate_gated;
  const int was_probing =
      before.left >= 0 && before.left < (int)PUREC_MEMO_WINDOW;
  if (purec_memo_gated(i) != value_of(i)) log->wrong++;
  if (gate_bypassing()) {
    if (log->bypassed == 0) log->first_bypass = log->calls;
    log->bypassed++;
  }
  if (purec_memo_gate_gated.backoff != before.backoff &&
      purec_memo_gate_gated.backoff != 0 &&
      purec_memo_gate_gated.backoff != before.backoff + 1)
    log->backoff_steps_bad++;
  if (was_probing && gate_bypassing() &&
      before.backoff == PUREC_MEMO_BACKOFF_MAX)
    log->windows_at_cap++;
  if (purec_memo_gate_gated.backoff > log->backoff_max)
    log->backoff_max = purec_memo_gate_gated.backoff;
  log->calls++;
}

/* Calls until backoff has sat at the cap for two failed windows: the
 * stretches W << 0 .. W << 9 that climb to it, two of W << 10 at it, and
 * the 12 probe windows between them. */
#define GATE_COLD_CALLS                                              \
  (12ULL * PUREC_MEMO_WINDOW +                                       \
   PUREC_MEMO_WINDOW * ((1ULL << PUREC_MEMO_BACKOFF_MAX) - 1) +      \
   2ULL * (PUREC_MEMO_WINDOW << PUREC_MEMO_BACKOFF_MAX))

/* All keys distinct: the first window earns no hit, so the call after it
 * bypasses; backoff climbs by one per window to the cap and stays there;
 * and no probation window grows the table past the first window's size. */
static void scenario_gate_cold(void) {
  gate_log log;
  purec_memo_word i, first_slots = 0;
  memset(&log, 0, sizeof log);
  log.first_bypass = ~0ULL;
  for (i = 0; i < GATE_COLD_CALLS; i++) {
    gate_call(i, &log);
    if (i + 1 == PUREC_MEMO_WINDOW) first_slots = table_slots();
    if (i >= PUREC_MEMO_WINDOW && table_slots() != first_slots) {
      CHECK(table_slots() == first_slots);
      break;
    }
  }
  CHECK(log.wrong == 0);
  CHECK(first_slots >= PUREC_MEMO_WINDOW);
  CHECK(log.first_bypass == PUREC_MEMO_WINDOW);
  CHECK(log.backoff_steps_bad == 0);
  CHECK(log.backoff_max == PUREC_MEMO_BACKOFF_MAX);
  CHECK(purec_memo_gate_gated.backoff == PUREC_MEMO_BACKOFF_MAX);
  CHECK(log.windows_at_cap == 2);
  /* Only the 12 probe windows reach the callee through the table. */
  CHECK(log.calls - log.bypassed == 12ULL * PUREC_MEMO_WINDOW);
  CHECK(gated_calls == log.calls);
}

/* 64 repeating keys: the first window misses 64 times and hits the rest,
 * and from then on every call hits, none bypasses. */
static void scenario_gate_hot(void) {
  gate_log log;
  purec_memo_word i;
  memset(&log, 0, sizeof log);
  for (i = 0; i < 64 * PUREC_MEMO_WINDOW; i++) gate_call(i % 64, &log);
  CHECK(log.wrong == 0);
  CHECK(log.bypassed == 0);
  CHECK(log.backoff_max == 0);
  CHECK(gated_calls == 64);
}

/* `cold` distinct keys, then hot traffic over 64 keys. A switch inside
 * a bypass stretch must see the first hit within the rest of that
 * stretch plus one window, and the gate open for good after it. A switch
 * inside a probe window may fail that window once more (its cold half
 * earned nothing), which costs one more stretch. The probation window
 * stored into a full table, so a hot key it evicted misses once more
 * after the bound: at most 64 callee calls, each growing the table. */
static void scenario_gate_phase(const char* cold_calls) {
  gate_log log;
  const purec_memo_word cold = strtoull(cold_calls, 0, 10);
  purec_memo_word i, bound, first_hit = ~0ULL;
  unsigned long long callee_before, bypassed_before;
  unsigned long long late_misses = 0, late_bypasses = 0;
  int left;
  memset(&log, 0, sizeof log);
  CHECK(cold > 0);
  for (i = 0; i < cold; i++) gate_call((1ULL << 40) + i, &log);
  CHECK(log.bypassed > 0);
  CHECK(purec_memo_gate_gated.backoff > 0);
  left = purec_memo_gate_gated.left;
  if (left < 0) /* the rest of the stretch, then one window */
    bound = (purec_memo_word)(left - PUREC_MEMO_BYPASS) + PUREC_MEMO_WINDOW;
  else if (left == (int)PUREC_MEMO_WINDOW) /* the stretch just ended */
    bound = PUREC_MEMO_WINDOW;
  else
    bound = 2 * PUREC_MEMO_WINDOW +
            (PUREC_MEMO_WINDOW << purec_memo_gate_gated.backoff);
  for (i = 0; i < bound + 4 * PUREC_MEMO_WINDOW; i++) {
    callee_before = gated_calls;
    bypassed_before = log.bypassed;
    gate_call(i % 64, &log);
    if (first_hit == ~0ULL && gated_calls == callee_before) first_hit = i;
    if (i >= bound) {
      late_bypasses += log.bypassed - bypassed_before;
      late_misses += gated_calls - callee_before;
    }
  }
  CHECK(log.wrong == 0);
  CHECK(first_hit < bound);
  CHECK(late_bypasses == 0);
  CHECK(late_misses <= 64);
  CHECK(purec_memo_gate_gated.backoff == 0);
}

typedef struct {
  int hot;
  gate_log log;
  const purec_memo_gate* gate;
  unsigned long long callee;
} gate_worker;

static void* gate_run(void* arg) {
  gate_worker* w = (gate_worker*)arg;
  purec_memo_word i;
  for (i = 0; i < 16 * PUREC_MEMO_WINDOW; i++)
    gate_call(w->hot ? i % 64 : i, &w->log);
  w->gate = &purec_memo_gate_gated;
  w->callee = gated_calls;
  return 0;
}

/* Four threads, two with cold traffic and two with hot: each gate judges
 * only its own thread's calls, and the main thread's stays untouched. */
static void scenario_gate_threads(void) {
  pthread_t threads[4];
  gate_worker workers[4];
  int t, u;
  for (t = 0; t < 4; t++) {
    memset(&workers[t], 0, sizeof workers[t]);
    workers[t].hot = t % 2;
    CHECK(pthread_create(&threads[t], 0, gate_run, &workers[t]) == 0);
  }
  for (t = 0; t < 4; t++) {
    CHECK(pthread_join(threads[t], 0) == 0);
    CHECK(workers[t].log.wrong == 0);
    if (workers[t].hot) {
      CHECK(workers[t].log.bypassed == 0);
      CHECK(workers[t].callee == 64);
    } else {
      CHECK(workers[t].log.first_bypass == PUREC_MEMO_WINDOW);
      CHECK(workers[t].log.bypassed > 8 * PUREC_MEMO_WINDOW);
      CHECK(workers[t].log.backoff_max > 1);
    }
    for (u = 0; u < t; u++) CHECK(workers[t].gate != workers[u].gate);
  }
  CHECK(purec_memo_gate_gated.left == 0);
  CHECK(purec_memo_gate_gated.misses == 0);
  CHECK(purec_memo_gate_gated.backoff == 0);
  CHECK(gated_calls == 0);
}

static purec_instr_region_t purec_instr_r0 = {.name = "demo:7", .id = 0u};
__attribute__((constructor)) static void purec_instr_r0_register(void) {
  purec_instr_register(&purec_instr_r0);
}

/* phase_instr: three executions of one region, four chunks each. */
static void phase_instr(void) {
  int run, i;
  for (run = 0; run < 3; run++) {
    unsigned long long purec_instr_t0 = purec_instr_now();
    for (i = 0; i < 4; i++) purec_instr_chunk(&purec_instr_r0);
    purec_instr_region_done(&purec_instr_r0, purec_instr_t0);
  }
}

static void scenario_instr_dump(const char* prefix) {
  char summary[4096], trace[4096];
  const char* env_summary[] = {"PUREC_STATS_FILE", summary, 0};
  const char* env_trace[] = {"PUREC_TRACE", trace, 0};
  long size;
  char* text;
  snprintf(summary, sizeof summary, "%s.txt", prefix);
  snprintf(trace, sizeof trace, "%s.json", prefix);
  unlink(summary);
  unlink(trace);
  run_phase("phase_instr", env_summary);
  text = slurp(summary, &size);
  /* One line: invocations, total wall time, then the worker tallies. */
  CHECK(count_of(text, "purec-instr[demo:7] invocations=3 total_ns=") == 1);
  CHECK(count_of(text, "\n") == 1);
  CHECK(count_of(text, " w0=12\n") == 1);
  CHECK(count_of(text, "_ns=") == 1);
  free(text);
  /* Two traced runs append cooperatively into one array. */
  run_phase("phase_instr", env_trace);
  run_phase("phase_instr", env_trace);
  text = slurp(trace, &size);
  CHECK(text != 0 && text[0] == '[');
  CHECK(size >= 2 && strcmp(text + size - 2, "]\n") == 0);
  CHECK(count_of(text, "\"process_name\"") == 2);
  CHECK(count_of(text, "\"cat\":\"region\",\"ph\":\"X\"") == 6);
  CHECK(count_of(text, "\"demo:7 chunks\",\"ph\":\"C\"") == 2);
  CHECK(count_of(text, "\"w0\":12") == 2);
  CHECK(count_of(text, "][") == 0);
  free(text);
  unlink(summary);
  unlink(trace);
}

/* instr_registry: 100 regions, past any fixed-size table, registered in
 * a scrambled order; the dump must name each once, in id order. */
#define INSTR_MANY 100
static purec_instr_region_t instr_many[INSTR_MANY];
static char instr_many_names[INSTR_MANY][16];

static void phase_instr_many(void) {
  unsigned i, id;
  for (i = 0; i < INSTR_MANY; i++) {
    /* 37 is coprime to 100, so this visits every id exactly once. */
    id = (i * 37u) % INSTR_MANY;
    snprintf(instr_many_names[id], sizeof instr_many_names[id], "many:%u",
             id);
    instr_many[id].name = instr_many_names[id];
    instr_many[id].id = id;
    purec_instr_register(&instr_many[id]);
  }
  for (id = 0; id < INSTR_MANY; id++) {
    unsigned long long purec_instr_t0 = purec_instr_now();
    purec_instr_chunk(&instr_many[id]);
    purec_instr_region_done(&instr_many[id], purec_instr_t0);
  }
}

static void scenario_instr_registry(const char* prefix) {
  char summary[4096], trace[4096], needle[64];
  const char* env_summary[] = {"PUREC_STATS_FILE", summary, 0};
  const char* env_trace[] = {"PUREC_TRACE", trace, 0};
  const char* at;
  long size;
  char* text;
  unsigned id;
  snprintf(summary, sizeof summary, "%s.txt", prefix);
  snprintf(trace, sizeof trace, "%s.json", prefix);
  unlink(summary);
  unlink(trace);
  run_phase("phase_instr_many", env_summary);
  text = slurp(summary, &size);
  CHECK(count_of(text, "purec-instr[") == INSTR_MANY);
  at = text;
  for (id = 0; id < INSTR_MANY && at != 0; id++) {
    snprintf(needle, sizeof needle, "purec-instr[many:%u] invocations=1 ",
             id);
    CHECK(count_of(text, needle) == 1);
    at = strstr(at, needle); /* ascending id: each line after the last */
    CHECK(at != 0);
  }
  free(text);
  run_phase("phase_instr_many", env_trace);
  text = slurp(trace, &size);
  CHECK(count_of(text, "\"ph\":\"X\"") == INSTR_MANY);
  CHECK(count_of(text, "\"ph\":\"C\"") == INSTR_MANY);
  for (id = 0; id < INSTR_MANY; id++) {
    snprintf(needle, sizeof needle, "\"many:%u chunks\"", id);
    CHECK(count_of(text, needle) == 1);
  }
  free(text);
  unlink(summary);
  unlink(trace);
}

int main(int argc, char** argv) {
  const char* name = argc > 1 ? argv[1] : "";
  const char* arg = argc > 2 ? argv[2] : "";
  self_exe = argv[0];
  if (strcmp(name, "roundtrip") == 0) {
    scenario_roundtrip();
  } else if (strcmp(name, "idempotent") == 0) {
    scenario_idempotent();
  } else if (strcmp(name, "capacity_one") == 0) {
    scenario_capacity_one();
  } else if (strcmp(name, "env_parse") == 0) {
    scenario_env_parse();
  } else if (strcmp(name, "eviction") == 0) {
    scenario_eviction();
  } else if (strcmp(name, "hammer") == 0) {
    scenario_hammer();
  } else if (strcmp(name, "checksum") == 0) {
    scenario_checksum();
  } else if (strcmp(name, "verify_alias") == 0) {
    scenario_verify_alias();
  } else if (strcmp(name, "verify_wide") == 0) {
    scenario_verify_wide();
  } else if (strcmp(name, "verify_off") == 0) {
    scenario_verify_off();
  } else if (strcmp(name, "hit_readonly") == 0) {
    scenario_hit_readonly();
  } else if (strcmp(name, "second_chance") == 0) {
    scenario_second_chance();
  } else if (strcmp(name, "growth") == 0) {
    scenario_growth();
  } else if (strcmp(name, "private") == 0) {
    scenario_private();
  } else if (strcmp(name, "thread_exit") == 0) {
    scenario_thread_exit();
  } else if (strcmp(name, "gate_cold") == 0) {
    scenario_gate_cold();
  } else if (strcmp(name, "gate_hot") == 0) {
    scenario_gate_hot();
  } else if (strcmp(name, "gate_phase") == 0) {
    scenario_gate_phase(arg);
  } else if (strcmp(name, "gate_threads") == 0) {
    scenario_gate_threads();
  } else if (strcmp(name, "stats_dump") == 0) {
    scenario_stats_dump(arg);
  } else if (strcmp(name, "stats_threads") == 0) {
    scenario_stats_threads(arg);
  } else if (strcmp(name, "instr_dump") == 0) {
    scenario_instr_dump(arg);
  } else if (strcmp(name, "instr_registry") == 0) {
    scenario_instr_registry(arg);
  } else if (strcmp(name, "phase_stats") == 0) {
    phase_stats();
  } else if (strcmp(name, "phase_stats_threads") == 0) {
    phase_stats_threads();
  } else if (strcmp(name, "phase_instr") == 0) {
    phase_instr();
  } else if (strcmp(name, "phase_instr_many") == 0) {
    phase_instr_many();
  } else {
    fprintf(stderr, "memo_runtime_test: unknown scenario '%s'\n", name);
    return 2;
  }
  return failures == 0 ? 0 : 1;
}
