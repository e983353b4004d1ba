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
 * "phase" with the knobs that process needs. The file is built twice.
 * memo_runtime_test defines PUREC_MEMO_STATS=1, as --memoize --instrument
 * emits it: the memo counters, the stats sink and the --instrument
 * runtime. memo_runtime_verify_test defines PUREC_MEMO_VERIFY=1 and
 * leaves stats at 0, as plain --memoize=verify emits it: no sink, no
 * counters, and the scenarios that read them are not compiled.
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

#if PUREC_MEMO_STATS
#include "purec_stats_sink.h"
#endif
#include "purec_memo.h"
#if PUREC_MEMO_STATS
#include "purec_instr.h"
#endif

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

/* The fingerprint a thunk for `f(long)` computes for argument i: one
 * key word, one mix. */
static purec_memo_word key_of(purec_memo_word i, purec_memo_word* kw,
                              unsigned* kn) {
  kw[0] = i;
  *kn = 1;
  return purec_memo_mix(0x1234ULL ^ kw[0]);
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
  return purec_memo_store(key, kw, kn, value);
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

/* Every key first..last hits with its exact value. */
static void expect_resident_from(purec_memo_word first,
                                 purec_memo_word last) {
  purec_memo_word i, out;
  int missing = 0;
  for (i = first; i <= last; i++) {
    out = 0;
    if (!lookup_i(i, &out)) {
      missing++;
    } else {
      CHECK(out == value_of(i));
    }
  }
  CHECK(missing == 0);
}

static void expect_resident(purec_memo_word n) {
  expect_resident_from(0, n - 1);
}

/* Slots of the calling thread's table whose tag is `key`. */
static int count_resident(purec_memo_word key) {
  const purec_memo_slot* t = purec_memo_self;
  purec_memo_word i;
  int n = 0;
  for (i = 0; t != 0 && i < purec_memo_cap; i++) {
    if (t[i].tag == key) n++;
  }
  return n;
}

/* Slots in the calling thread's table; 0 before its first store. */
static purec_memo_word table_slots(void) {
  return purec_memo_self == 0 ? 0 : purec_memo_cap;
}

/* The most keys of 0..n-1 that share one bucket. */
static unsigned bucket_load_max(purec_memo_word n) {
  const purec_memo_word buckets = purec_memo_cap / PUREC_MEMO_WAYS;
  unsigned* load = (unsigned*)calloc(buckets, sizeof(unsigned));
  purec_memo_word kw[1], i;
  unsigned kn, most = 0;
  if (load == 0) return ~0u;
  for (i = 0; i < n; i++) {
    unsigned* l = &load[purec_memo_bucket(key_of(i, kw, &kn)) /
                        PUREC_MEMO_WAYS];
    if (++*l > most) most = *l;
  }
  free(load);
  return most;
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
  /* Floating-point arguments and results travel as bit patterns: a
   * thunk for `f(float, double)` packs the float into a word of its own
   * and gives the double a whole one. */
  kw[kn] = PUREC_MEMO_PAIR(PUREC_MEMO_PACK_F32(f), 0);
  key = purec_memo_mix(key ^ kw[kn++]);
  kw[kn] = PUREC_MEMO_PACK_F64(d);
  key = purec_memo_mix(key ^ kw[kn++]);
  CHECK(purec_memo_store(key, kw, kn, PUREC_MEMO_PACK_F64(d * f)) == 0);
  CHECK(purec_memo_lookup(key, kw, kn, &word));
  CHECK(PUREC_MEMO_UNPACK_F64(word) == d * f);
  CHECK(purec_memo_store(key ^ 1, kw, kn, PUREC_MEMO_PACK_F32(f)) == 0);
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

/* PUREC_MEMO_CAP=1 rounds up to one bucket: four keys fit, and each
 * key after them recycles one slot; a hit is never wrong. */
static void scenario_capacity_one(void) {
  purec_memo_word out = 0, i;
  int resident = 0;
  CHECK(purec_memo_cap == PUREC_MEMO_WAYS);
  for (i = 1; i <= 4; i++) CHECK(store_i(i, value_of(i)) == 0);
  CHECK(table_slots() == 4);
  expect_resident_from(1, 4);
  CHECK(store_i(5, value_of(5)) == 1);
  CHECK(lookup_i(5, &out) && out == value_of(5));
  for (i = 1; i <= 4; i++) {
    out = 0;
    if (lookup_i(i, &out)) {
      resident++;
      CHECK(out == value_of(i));
    }
  }
  CHECK(resident == 3);
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
  /* The constructor saw no knob: the default table, 128 KiB. */
  CHECK(purec_memo_cap == 8192);
  CHECK(purec_memo_cap * sizeof(purec_memo_slot) == 131072);
  CHECK(PUREC_MEMO_WAYS * sizeof(purec_memo_slot) == 64);
  /* Below one bucket a cap rounds up to it. */
  CHECK(purec_memo_pow2(1) == 4);
  CHECK(purec_memo_pow2(3) == 4);
  CHECK(purec_memo_pow2(7) == 4);
  CHECK(purec_memo_pow2(8) == 8);
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
  CHECK(purec_memo_store(fp, a, 2, 100) == 0);
  CHECK(purec_memo_lookup(fp, a, 2, &out) && out == 100);
  CHECK(!purec_memo_lookup(fp, b, 2, &out)); /* the alias misses */
  /* Publishing the alias replaces the resident entry, so b does not miss
   * forever; a misses in turn. */
  CHECK(purec_memo_store(fp, b, 2, 200) == 1);
  CHECK(purec_memo_lookup(fp, b, 2, &out) && out == 200);
  CHECK(!purec_memo_lookup(fp, a, 2, &out));
}

static void scenario_verify_wide(void) {
  purec_memo_word wide[PUREC_MEMO_VWORDS + 1], out = 0, key = 0x99ULL;
  unsigned kn = 0, w;
  CHECK(PUREC_MEMO_VERIFY);
  for (w = 0; w < PUREC_MEMO_VWORDS + 1; w++) {
    wide[kn] = w;
    key = purec_memo_mix(key ^ wide[kn++]);
  }
  /* An unverifiable tuple is never cached: a permanent, safe miss. */
  CHECK(purec_memo_store(key, wide, kn, 5) == 0);
  CHECK(!purec_memo_lookup(key, wide, kn, &out));
  CHECK(count_resident(key) == 0);
}

static void scenario_verify_off(void) {
  purec_memo_word kw[1], out = 0;
  unsigned kn;
  const purec_memo_word fp = key_of(3, kw, &kn);
  const purec_memo_word a[1] = {1}, b[1] = {2};
  CHECK(!PUREC_MEMO_VERIFY);
  CHECK(purec_memo_store(fp, a, 1, 33) == 0);
  /* Without verify the fingerprint is the whole key: b "hits". */
  CHECK(purec_memo_lookup(fp, b, 1, &out) && out == 33);
}

/* ------------------------------------------------------------------ */
/* Packed keys                                                         */
/* ------------------------------------------------------------------ */

/* The key word a thunk for `f(int, float)` packs (tabulate's shade(int)
 * with its float global). */
static purec_memo_word pack_int_float(int a, float x) {
  return PUREC_MEMO_PAIR(a, PUREC_MEMO_PACK_F32(x));
}

static float float_of_bits(unsigned int bits) {
  purec_memo_f32 u;
  u.b = bits;
  return u.v;
}

/* A grid of (int, float) tuples: negative ints, 0.0f against -0.0f, NaNs
 * with different payloads. The packed word holds both values exactly,
 * so every tuple gets its own word and, the mix being a bijection, its
 * own fingerprint. */
static void scenario_key_pack(void) {
  static const int ints[] = {-0x7fffffff - 1, -65536, -2, -1, 0, 1, 2,
                             0x3f800000, 65535, 0x7fffffff};
  static const unsigned int float_bits[] = {
      0x00000000u, 0x80000000u, 0x3f800000u, 0xbf800000u,
      0x00000001u, 0x7f800000u, 0xff800000u, 0x7fc00000u,
      0x7fc00001u, 0xffc00000u, 0x7fa00000u, 0x3f400000u};
  enum {
    NI = sizeof ints / sizeof ints[0],
    NF = sizeof float_bits / sizeof float_bits[0]
  };
  purec_memo_word words[NI * NF], keys[NI * NF];
  unsigned i, f, n = 0, a, b;
  for (i = 0; i < NI; i++) {
    for (f = 0; f < NF; f++) {
      words[n] = pack_int_float(ints[i], float_of_bits(float_bits[f]));
      keys[n] = purec_memo_mix(0x6de5ULL ^ words[n]);
      CHECK((unsigned int)words[n] == (unsigned int)ints[i]);
      CHECK(words[n] >> 32 == float_bits[f]);
      n++;
    }
  }
  for (a = 0; a < n; a++) {
    for (b = a + 1; b < n; b++) {
      if (words[a] == words[b] || keys[a] == keys[b]) {
        fprintf(stderr, "tuples %u and %u share a key\n", a, b);
        failures++;
      }
    }
  }
}

/* Under verify: two thunks whose one-word tuples differ by the xor of
 * their ids share a fingerprint. The lookup compares the raw words and
 * misses, and the resident entry still hits. */
static void scenario_verify_thunks(void) {
  const purec_memo_word id1 = 0x6a7eULL, id2 = 0x5151ULL;
  const purec_memo_word w1 = pack_int_float(7, 0.75f), w2 = w1 ^ id1 ^ id2;
  const purec_memo_word k1 = purec_memo_mix(id1 ^ w1);
  const purec_memo_word k2 = purec_memo_mix(id2 ^ w2);
  purec_memo_word out = 0;
  CHECK(PUREC_MEMO_VERIFY);
  CHECK(k1 == k2);
  CHECK(purec_memo_store(k1, &w1, 1, 100) == 0);
  CHECK(!purec_memo_lookup(k2, &w2, 1, &out));
  CHECK(purec_memo_lookup(k1, &w1, 1, &out) && out == 100);
}

/* ------------------------------------------------------------------ */
/* Read-only hits and buckets                                          */
/* ------------------------------------------------------------------ */

static void wrote_sealed(int sig) {
  static const char msg[] = "memo_runtime_test: a hit wrote to the table\n";
  (void)sig;
  if (write(2, msg, sizeof msg - 1) < 0) _exit(2);
  _exit(1);
}

/* Hits write nothing. After the stores, the thread's table (slots and
 * verify records, one allocation) moves into a mapping sealed read-only:
 * a round of hits must neither fault nor change a byte of it, so even a
 * store of an unchanged value fails the scenario. */
static void scenario_hit_readonly(void) {
  purec_memo_slot* table;
  unsigned char *sealed, *snapshot;
  const size_t bytes =
      purec_memo_cap *
      (sizeof(purec_memo_slot) +
       (PUREC_MEMO_VERIFY ? PUREC_MEMO_VREC * sizeof(purec_memo_word) : 0));
  tally t = {0, 0, 0, 0};
  purec_memo_word i;
  for (i = 0; i < 256; i++) serve(i, &t);
  CHECK(t.misses == 256);
  CHECK(bucket_load_max(256) <= PUREC_MEMO_WAYS);
  expect_resident(256);
  table = purec_memo_self;
  sealed = (unsigned char*)mmap(0, bytes, PROT_READ | PROT_WRITE,
                                MAP_PRIVATE | MAP_ANONYMOUS, -1, 0);
  CHECK(sealed != MAP_FAILED);
  if (sealed == MAP_FAILED) return;
  memcpy(sealed, table, bytes);
  snapshot = (unsigned char*)malloc(bytes);
  CHECK(snapshot != 0);
  if (snapshot != 0) memcpy(snapshot, sealed, bytes);
  purec_memo_self = (purec_memo_slot*)sealed;
  CHECK(mprotect(sealed, bytes, PROT_READ) == 0);
  signal(SIGSEGV, wrote_sealed);
  expect_resident(256);
  signal(SIGSEGV, SIG_DFL);
  CHECK(snapshot != 0 && memcmp(sealed, snapshot, bytes) == 0);
  purec_memo_self = table;
  munmap(sealed, bytes);
  free(snapshot);
}

/* A fingerprint in bucket `bucket` whose top two bits are `way`; `gen`
 * tells apart keys for the same bucket. */
static purec_memo_word bucket_key(purec_memo_word bucket, purec_memo_word way,
                                  purec_memo_word gen) {
  return way << 62 | (gen + 1) * purec_memo_cap |
         bucket * PUREC_MEMO_WAYS;
}

/* Two buckets of four slots. Four keys fill bucket 0 without evicting,
 * and storing a resident key again changes nothing. A fifth key replaces
 * exactly one entry, the slot its top bits pick, and counts one eviction;
 * bucket 1 is untouched. */
static void scenario_bucket_evict(void) {
  purec_memo_word g, out = 0;
  CHECK(purec_memo_cap == 8);
  for (g = 0; g < 4; g++) {
    CHECK(purec_memo_store(bucket_key(0, 0, g), 0, 0, g) == 0);
  }
  CHECK(purec_memo_store(bucket_key(1, 0, 0), 0, 0, 10) == 0);
  CHECK(purec_memo_store(bucket_key(0, 0, 2), 0, 0, 2) == 0);
  CHECK(purec_memo_store(bucket_key(0, 2, 4), 0, 0, 4) == 1);
  CHECK(count_resident(bucket_key(0, 0, 2)) == 0); /* slot 2 taken over */
  for (g = 0; g < 4; g++) {
    if (g == 2) continue;
    CHECK(purec_memo_lookup(bucket_key(0, 0, g), 0, 0, &out) && out == g);
  }
  CHECK(purec_memo_lookup(bucket_key(0, 2, 4), 0, 0, &out) && out == 4);
  CHECK(purec_memo_lookup(bucket_key(1, 0, 0), 0, 0, &out) && out == 10);
  CHECK(count_resident(bucket_key(0, 2, 4)) == 1);
}

/* cap/4 keys, which land at most four to a bucket: the first pass misses
 * each once and evicts nothing, the second hits every one. */
static void* fill_run(void* arg) {
  tally t = {0, 0, 0, 0};
  const purec_memo_word n = purec_memo_cap / 4;
  purec_memo_word i;
  int* bad = (int*)arg;
  for (i = 0; i < n; i++) serve(i, &t);
  *bad = t.misses != n || t.evictions != 0;
  for (i = 0; i < n; i++) serve(i, &t);
  *bad |= t.hits != n || t.wrong != 0;
  return 0;
}

/* The same fill at 1 thread and at 4, each thread in its own table. */
static void scenario_bucket_fill(void) {
  pthread_t threads[4];
  int bad[4];
  int t;
  CHECK(bucket_load_max(purec_memo_cap / 4) <= PUREC_MEMO_WAYS);
  fill_run(&bad[0]);
  CHECK(bad[0] == 0);
  for (t = 0; t < 4; t++) {
    bad[t] = 1;
    CHECK(pthread_create(&threads[t], 0, fill_run, &bad[t]) == 0);
  }
  for (t = 0; t < 4; t++) {
    CHECK(pthread_join(threads[t], 0) == 0);
    CHECK(bad[t] == 0);
  }
}

/* Under verify, a tuple that shares a resident key's fingerprint misses;
 * stored, it takes over that key's own slot even in a full bucket, so
 * the bucket's other keys keep hitting. */
static void scenario_bucket_alias(void) {
  const purec_memo_word a[1] = {1}, b[1] = {2};
  purec_memo_word g, out = 0;
  CHECK(PUREC_MEMO_VERIFY);
  for (g = 0; g < 4; g++) {
    CHECK(purec_memo_store(bucket_key(0, 3, g), g == 1 ? a : b, 1, g) == 0);
  }
  CHECK(!purec_memo_lookup(bucket_key(0, 3, 1), b, 1, &out));
  CHECK(purec_memo_store(bucket_key(0, 3, 1), b, 1, 100) == 1);
  CHECK(purec_memo_lookup(bucket_key(0, 3, 1), b, 1, &out) && out == 100);
  CHECK(!purec_memo_lookup(bucket_key(0, 3, 1), a, 1, &out));
  CHECK(count_resident(bucket_key(0, 3, 1)) == 1);
  for (g = 0; g < 4; g++) {
    if (g == 1) continue;
    CHECK(purec_memo_lookup(bucket_key(0, 3, g), b, 1, &out) && out == g);
  }
}

/* ------------------------------------------------------------------ */
/* Per-thread tables: privacy, thread exit                             */
/* ------------------------------------------------------------------ */

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

/* One short-lived thread: fill a table past its size, then exit. */
static void* exit_run(void* arg) {
  tally t = {0, 0, 0, 0};
  purec_memo_word i;
  int* wrong = (int*)arg;
  for (i = 0; i < 9000; i++) serve(i, &t);
  for (i = 0; i < 9000; i++) serve(i, &t);
  *wrong = t.wrong != 0 || t.hits == 0 || table_slots() != 8192;
  return 0;
}

/* A table dies with its thread. 64 threads each leave a table of 8192
 * slots behind; had none been freed, the heap would hold them all after
 * the joins (LSan in the sanitizer lane reports each one). */
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
  /* 64 tables of 8192 slots would be over 8 MiB, in heap chunks
   * (uordblks) or, past the mmap threshold, mapped blocks (hblkhd). */
  CHECK(after.uordblks + after.hblkhd <
        before.uordblks + before.hblkhd + (1u << 20));
  CHECK(purec_memo_self == 0); /* the main thread never stored */
}

/* ------------------------------------------------------------------ */
/* Process and file helpers                                            */
/* ------------------------------------------------------------------ */

/* Only the exit-dump scenarios, which need the counters and the stats
 * sink, run phases and read files. */
#if PUREC_MEMO_STATS

/* Runs `exe` as `phase` with NAME, VALUE pairs from the null-terminated
 * `env` added to its environment; the phase must pass. */
static void run_exe_phase(const char* exe, const char* phase,
                          const char* const* env) {
  int status = 0;
  pid_t pid;
  fflush(stdout);
  fflush(stderr);
  pid = fork();
  if (pid == 0) {
    for (; env[0] != 0; env += 2) setenv(env[0], env[1], 1);
    execl(exe, exe, phase, (char*)0);
    _exit(127);
  }
  if (pid < 0 || waitpid(pid, &status, 0) != pid || !WIFEXITED(status) ||
      WEXITSTATUS(status) != 0) {
    fprintf(stderr, "phase %s failed (status %d)\n", phase, status);
    failures++;
  }
}

static void run_phase(const char* phase, const char* const* env) {
  run_exe_phase(self_exe, phase, env);
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
#endif

/* ------------------------------------------------------------------ */
/* Exit-time dumps: memo counters and --instrument                     */
/* ------------------------------------------------------------------ */

static int square(int x) { return x * x; }

/* The thunk shape purecc emits for `pure T fn(T)`, WORD being the key word
 * it packs from purec_a0: with counters, their entry and its registrar
 * come first. */
#if PUREC_MEMO_STATS
#define THUNK_ENTRY(fn)                                                 \
  static purec_memo_stats_entry purec_memo_stats_##fn = {.name = #fn}; \
  __attribute__((constructor)) static void                             \
      purec_memo_stats_##fn##_register(void) {                         \
    purec_memo_stats_register(&purec_memo_stats_##fn);                 \
  }
#else
#define THUNK_ENTRY(fn)
#endif
#define THUNK(fn, T, id, WORD)                                         \
  THUNK_ENTRY(fn)                                                      \
  static __thread purec_memo_gate purec_memo_gate_##fn;                \
  static T purec_memo_##fn(T purec_a0) {                               \
    purec_memo_word purec_key = id;                                    \
    purec_memo_word purec_word;                                        \
    purec_memo_word purec_kw[1];                                       \
    T purec_result;                                                    \
    if (purec_memo_gate_skip(&purec_memo_gate_##fn)) {                 \
      PUREC_MEMO_STAT_INC(purec_memo_stats_##fn, bypassed);            \
      purec_key = 0;                                                   \
    } else {                                                           \
      purec_kw[0] = WORD;                                              \
      purec_key = purec_memo_mix(purec_key ^ purec_kw[0]);             \
      if (purec_key != 0 &&                                            \
          purec_memo_lookup(purec_key, purec_kw, 1, &purec_word)) {    \
        PUREC_MEMO_STAT_INC(purec_memo_stats_##fn, hits);              \
        return (T)(purec_word);                                        \
      }                                                                \
      purec_memo_gate_##fn.misses++;                                   \
      PUREC_MEMO_STAT_INC(purec_memo_stats_##fn, misses);              \
    }                                                                  \
    purec_result = fn(purec_a0);                                       \
    if (purec_key != 0 &&                                              \
        purec_memo_store(purec_key, purec_kw, 1,                       \
                         (purec_memo_word)(purec_result)))             \
      PUREC_MEMO_STAT_INC(purec_memo_stats_##fn, evictions);           \
    return purec_result;                                               \
  }

THUNK(square, int, 0x5151ULL, PUREC_MEMO_PAIR(purec_a0, 0))

/* phase_stats: 100 calls over 10 arguments. */
static void phase_stats(void) {
  int i;
  for (i = 0; i < 100; i++) {
    CHECK(purec_memo_square(i % 10) == square(i % 10));
  }
}

#if PUREC_MEMO_STATS
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
  const char* env_on[] = {"PUREC_STATS_FILE", path, 0};
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

/* stats_registry: 100 counter entries, past any fixed-size table,
 * registered in a scrambled order; the dump must name each once, in name
 * order. */
#define STATS_MANY 100
static purec_memo_stats_entry stats_many[STATS_MANY];
static char stats_many_names[STATS_MANY][16];

static void phase_stats_many(void) {
  unsigned i, k;
  for (i = 0; i < STATS_MANY; i++) {
    /* 37 is coprime to 100, so this visits every entry exactly once. */
    k = (i * 37u) % STATS_MANY;
    snprintf(stats_many_names[k], sizeof stats_many_names[k], "many%03u",
             k);
    stats_many[k].name = stats_many_names[k];
    purec_memo_stats_register(&stats_many[k]);
  }
  for (k = 0; k < STATS_MANY; k++) PUREC_MEMO_STAT_INC(stats_many[k], hits);
}

static void scenario_stats_registry(const char* path) {
  const char* env[] = {"PUREC_STATS_FILE", path, 0};
  const char* at;
  char needle[64];
  long size;
  char* text;
  unsigned k;
  unlink(path);
  run_phase("phase_stats_many", env);
  text = slurp(path, &size);
  /* The many entries, square and gated. */
  CHECK(count_of(text, "purec-memo[") == STATS_MANY + 2);
  at = text;
  for (k = 0; k < STATS_MANY && at != 0; k++) {
    snprintf(needle, sizeof needle, "purec-memo[many%03u] hits=1 ", k);
    CHECK(count_of(text, needle) == 1);
    at = strstr(at, needle); /* ascending name: after the last */
    CHECK(at != 0);
  }
  free(text);
  unlink(path);
}

/* With counters compiled in, one dump line per registered thunk, with
 * no knob set; the same phase run by `plain_exe`, built without them,
 * dumps nothing, even with the old PUREC_MEMO_STATS=1 knob set. */
static void scenario_stats_dump(const char* path, const char* plain_exe) {
  const char* env_on[] = {"PUREC_STATS_FILE", path, 0};
  const char* env_off[] = {"PUREC_MEMO_STATS", "1", "PUREC_STATS_FILE",
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
  /* Compiled out: no dump. */
  unlink(path);
  run_exe_phase(plain_exe, "phase_stats", env_off);
  CHECK(file_size(path) == -1);
}
#endif

/* ------------------------------------------------------------------ */
/* The admission gate                                                  */
/* ------------------------------------------------------------------ */

/* The gated callee: value_of, counting the calling thread's calls. */
static __thread unsigned long long gated_calls;
static purec_memo_word gated(purec_memo_word i) {
  gated_calls++;
  return value_of(i);
}

THUNK(gated, purec_memo_word, 0x6a7eULL, purec_a0)

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
 * first, unjudged window, then the stretches W << 0 .. W << 9 that climb
 * to it, two of W << 10 at it, and the 12 probe windows before them. */
#define GATE_COLD_CALLS                                              \
  (13ULL * PUREC_MEMO_WINDOW +                                       \
   PUREC_MEMO_WINDOW * ((1ULL << PUREC_MEMO_BACKOFF_MAX) - 1) +      \
   2ULL * (PUREC_MEMO_WINDOW << PUREC_MEMO_BACKOFF_MAX))

/* All keys distinct: the first window is not judged, the second earns no
 * hit, so the call after it bypasses; backoff climbs by one per window to
 * the cap and stays there. */
static void scenario_gate_cold(void) {
  gate_log log;
  purec_memo_word i;
  memset(&log, 0, sizeof log);
  log.first_bypass = ~0ULL;
  for (i = 0; i < GATE_COLD_CALLS; i++) gate_call(i, &log);
  CHECK(log.wrong == 0);
  CHECK(log.first_bypass == 2 * PUREC_MEMO_WINDOW);
  CHECK(log.backoff_steps_bad == 0);
  CHECK(log.backoff_max == PUREC_MEMO_BACKOFF_MAX);
  CHECK(purec_memo_gate_gated.backoff == PUREC_MEMO_BACKOFF_MAX);
  CHECK(log.windows_at_cap == 2);
  /* Only the 13 probe windows reach the callee through the table. */
  CHECK(log.calls - log.bypassed == 13ULL * PUREC_MEMO_WINDOW);
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

/* Hot traffic over 1024 keys: the first window meets each key once and
 * misses on all of them, but it is not judged; every later window hits,
 * so no call bypasses the table. */
static void scenario_gate_hot_wide(void) {
  gate_log log;
  purec_memo_word i;
  memset(&log, 0, sizeof log);
  for (i = 0; i < 16 * PUREC_MEMO_WINDOW; i++) gate_call(i % 1024, &log);
  CHECK(log.wrong == 0);
  CHECK(log.bypassed == 0);
  CHECK(log.backoff_max == 0);
  CHECK(gated_calls >= 1024 && gated_calls < 2 * 1024);
}

/* `cold` distinct keys, then hot traffic over 64 keys. A switch inside
 * a bypass stretch must see the first hit within the rest of that
 * stretch plus one window, and the gate open for good after it. A switch
 * inside a probe window may fail that window once more (its cold half
 * earned nothing), which costs one more stretch. That window stored into
 * the table, so a hot key it evicted misses once more after the bound:
 * at most 64 callee calls. */
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
      CHECK(workers[t].log.first_bypass == 2 * PUREC_MEMO_WINDOW);
      CHECK(workers[t].log.bypassed > 8 * PUREC_MEMO_WINDOW);
      CHECK(workers[t].log.backoff_max > 1);
    }
    for (u = 0; u < t; u++) CHECK(workers[t].gate != workers[u].gate);
  }
  CHECK(purec_memo_gate_gated.left == 0);
  CHECK(purec_memo_gate_gated.misses == 0);
  CHECK(purec_memo_gate_gated.backoff == 0);
  CHECK(purec_memo_gate_gated.opened == 0);
  CHECK(gated_calls == 0);
}

#if PUREC_MEMO_STATS
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
  /* One line: invocations, total wall time, then the worker tallies. The
   * memo counters' lines (square, gated) share the stream. */
  CHECK(count_of(text, "purec-instr[demo:7] invocations=3 total_ns=") == 1);
  CHECK(count_of(text, "\n") == 3);
  CHECK(count_of(text, "purec-memo[") == 2);
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
#endif

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
  } else if (strcmp(name, "key_pack") == 0) {
    scenario_key_pack();
  } else if (strcmp(name, "verify_thunks") == 0) {
    scenario_verify_thunks();
  } else if (strcmp(name, "hit_readonly") == 0) {
    scenario_hit_readonly();
  } else if (strcmp(name, "bucket_evict") == 0) {
    scenario_bucket_evict();
  } else if (strcmp(name, "bucket_fill") == 0) {
    scenario_bucket_fill();
  } else if (strcmp(name, "bucket_alias") == 0) {
    scenario_bucket_alias();
  } else if (strcmp(name, "private") == 0) {
    scenario_private();
  } else if (strcmp(name, "thread_exit") == 0) {
    scenario_thread_exit();
  } else if (strcmp(name, "gate_cold") == 0) {
    scenario_gate_cold();
  } else if (strcmp(name, "gate_hot") == 0) {
    scenario_gate_hot();
  } else if (strcmp(name, "gate_hot_wide") == 0) {
    scenario_gate_hot_wide();
  } else if (strcmp(name, "gate_phase") == 0) {
    scenario_gate_phase(arg);
  } else if (strcmp(name, "gate_threads") == 0) {
    scenario_gate_threads();
  } else if (strcmp(name, "phase_stats") == 0) {
    phase_stats();
#if PUREC_MEMO_STATS
  } else if (strcmp(name, "stats_dump") == 0) {
    scenario_stats_dump(arg, argc > 3 ? argv[3] : "");
  } else if (strcmp(name, "stats_threads") == 0) {
    scenario_stats_threads(arg);
  } else if (strcmp(name, "stats_registry") == 0) {
    scenario_stats_registry(arg);
  } else if (strcmp(name, "instr_dump") == 0) {
    scenario_instr_dump(arg);
  } else if (strcmp(name, "instr_registry") == 0) {
    scenario_instr_registry(arg);
  } else if (strcmp(name, "phase_stats_threads") == 0) {
    phase_stats_threads();
  } else if (strcmp(name, "phase_stats_many") == 0) {
    phase_stats_many();
  } else if (strcmp(name, "phase_instr") == 0) {
    phase_instr();
  } else if (strcmp(name, "phase_instr_many") == 0) {
    phase_instr_many();
#endif
  } else {
    fprintf(stderr, "memo_runtime_test: unknown scenario '%s'\n", name);
    return 2;
  }
  return failures == 0 ? 0 : 1;
}
