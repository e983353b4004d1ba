#include <stdio.h>
#include <stdlib.h>
#include <omp.h>
#include <pthread.h>
#ifndef PUREC_POLY_HELPERS
#define PUREC_POLY_HELPERS
#define floord(n, d) (((n) < 0) ? -((-(n) + (d) - 1) / (d)) : (n) / (d))
#define ceild(n, d) floord((n) + (d) - 1, (d))
#define purec_max(a, b) (((a) > (b)) ? (a) : (b))
#define purec_min(a, b) (((a) < (b)) ? (a) : (b))
#endif
#ifndef PUREC_MEMO_RUNTIME
#define PUREC_MEMO_RUNTIME
/* Memoization table for pure-call results, one per thread: a thread's
 * first store allocates its table, and the table is freed when the thread
 * exits. Only its own thread reads or writes a table, so it needs no
 * atomics or locks; threads do not share results, so a key misses at most
 * once per thread. The table never grows: it holds PUREC_MEMO_CAP slots
 * (per thread, default 8192 = 128 KiB, rounded down to a power of two and
 * up to one bucket) in buckets of 4 slots, one 64-byte cache line each;
 * at the default, 1024 hot keys over-fill about one bucket in 6000.
 * A key belongs to one bucket. A lookup scans only that bucket, and a hit
 * only loads. A store takes the key's own slot or the bucket's first empty
 * one; in a full bucket it overwrites the slot the key's bits pick, which
 * counts as an eviction. A key is the fingerprint of the call's tuple,
 * its arguments and global snapshot packed into 64-bit words (values of
 * 32 bits or fewer two to a word, PUREC_MEMO_PAIR; 64-bit values one
 * each): it starts from the thunk's id and takes one purec_memo_mix per
 * word, k = mix(k ^ word). The mix is a bijection, so two tuples of one
 * thunk that fit one word never share a fingerprint. A zero fingerprint
 * (the empty tag) is never cached. Each thunk first asks its per-thread
 * gate (purec_memo_gate, below), which sends calls that do not hit
 * straight to the callee. Per-thunk counters are compiled in only for
 * --instrument builds; other output carries none. Full-key verification is
 * compile-time only: PUREC_MEMO_VERIFY=1 (--memoize=verify emits it)
 * stores the raw key words next to each slot and compares them on a hit,
 * so a fingerprint alias degrades to a miss instead of a wrong value; at
 * 0 every verify branch folds away. Needs <pthread.h> and <stdlib.h>. */
#ifndef PUREC_MEMO_VERIFY
#define PUREC_MEMO_VERIFY 0
#endif
typedef unsigned long long purec_memo_word;
typedef union { float v; unsigned int b; } purec_memo_f32;
typedef union { double v; purec_memo_word b; } purec_memo_f64;

/* Widest key tuple (in 64-bit words) a verify record can hold; wider
 * tuples bypass the cache under verify (a permanent, safe miss). purecc
 * defines it as the widest tuple among the TU's thunks. */
#ifndef PUREC_MEMO_VWORDS
#define PUREC_MEMO_VWORDS 12u
#endif
#define PUREC_MEMO_VREC (1u + PUREC_MEMO_VWORDS) /* [count, words...] */

#ifndef PUREC_MEMO_STAT_INC /* no counters: counting is a no-op */
#define PUREC_MEMO_STAT_INC(entry, counter) ((void)0)
#endif

typedef struct {
  purec_memo_word tag; /* key fingerprint; 0 = empty */
  purec_memo_word value;
} purec_memo_slot;

#define PUREC_MEMO_WAYS 4u /* slots per bucket: one 64-byte line */

/* The calling thread's slots, 0 until its first store; the verify
 * records, PUREC_MEMO_VREC words per slot, follow them. */
static __thread purec_memo_slot* purec_memo_self;
static pthread_key_t purec_memo_exit_key; /* frees a table at thread exit */
static purec_memo_word purec_memo_cap = PUREC_MEMO_WAYS; /* slots, pow2 */
static int purec_memo_ready; /* 0 until init creates the exit key */

static purec_memo_word purec_memo_mix(purec_memo_word x) {
  x += 0x9e3779b97f4a7c15ULL;
  x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ULL;
  x = (x ^ (x >> 27)) * 0x94d049bb133111ebULL;
  return x ^ (x >> 31);
}

/* Knob ceiling: 2^24 slots. Clamping keeps absurd values ("-1" wraps to
 * ULLONG_MAX through strtoull) from hanging the pow2 loop or OOM-ing. */
static purec_memo_word purec_memo_env(const char* name,
                                      purec_memo_word fallback) {
  const char* v = getenv(name);
  char* end;
  unsigned long long parsed;
  if (v == 0 || *v == 0) return fallback;
  parsed = strtoull(v, &end, 10);
  if (*end != 0 || parsed == 0) return fallback;
  return parsed > (1ULL << 24) ? (1ULL << 24) : parsed;
}

/* v rounded down to a power of two, and up to one bucket. */
static purec_memo_word purec_memo_pow2(purec_memo_word v) {
  purec_memo_word p = PUREC_MEMO_WAYS;
  while (p <= v / 2) p *= 2;
  return p;
}

static void purec_memo_thread_exit(void* table) {
  free(table);
  purec_memo_self = 0;
}

__attribute__((constructor)) static void purec_memo_init(void) {
  purec_memo_cap = purec_memo_pow2(purec_memo_env("PUREC_MEMO_CAP", 8192));
  purec_memo_ready =
      pthread_key_create(&purec_memo_exit_key, purec_memo_thread_exit) == 0;
}

/* The first slot of key's bucket. */
static purec_memo_word purec_memo_bucket(purec_memo_word key) {
  return key & (purec_memo_cap - PUREC_MEMO_WAYS);
}

/* Under verify: slot idx holds exactly the key words kw[0..kn). */
static int purec_memo_same(const purec_memo_slot* t, purec_memo_word idx,
                           const purec_memo_word* kw, unsigned kn) {
  const purec_memo_word* rec = (const purec_memo_word*)(t + purec_memo_cap) +
                               idx * PUREC_MEMO_VREC;
  unsigned w;
  if (rec[0] != kn) return 0;
  for (w = 0; w < kn; w++)
    if (rec[1 + w] != kw[w]) return 0;
  return 1;
}

/* Gives the calling thread its table: purec_memo_cap zeroed slots, aligned
 * so that each bucket is one cache line, then the verify records (none
 * when PUREC_MEMO_VERIFY is 0), in one allocation that the exit key frees.
 * 0 when memory runs out. */
__attribute__((noinline, cold)) static purec_memo_slot* purec_memo_alloc(
    void) {
  const size_t per_slot =
      sizeof(purec_memo_slot) +
      (PUREC_MEMO_VERIFY ? PUREC_MEMO_VREC * sizeof(purec_memo_word) : 0);
  char* raw;
  if (!purec_memo_ready) return 0;
  raw = (char*)calloc(1, purec_memo_cap * per_slot + 63);
  if (raw == 0) return 0;
  if (pthread_setspecific(purec_memo_exit_key, raw) != 0) {
    free(raw);
    return 0;
  }
  purec_memo_self = (purec_memo_slot*)(raw + (-(size_t)raw & 63u));
  return purec_memo_self;
}

static int purec_memo_lookup(purec_memo_word key,
                             const purec_memo_word* kw, unsigned kn,
                             purec_memo_word* value) {
  const purec_memo_slot* t = purec_memo_self;
  purec_memo_word idx;
  unsigned i;
  if (t == 0) return 0;
  idx = purec_memo_bucket(key);
  for (i = 0; i < PUREC_MEMO_WAYS; i++, idx++) {
    if (t[idx].tag != key) continue;
    /* A fingerprint alias recomputes. A tuple too wide to store never
     * matches a record's count. */
    if (PUREC_MEMO_VERIFY && !purec_memo_same(t, idx, kw, kn)) return 0;
    *value = t[idx].value;
    return 1;
  }
  return 0;
}

/* Returns 1 when the store displaced a live entry (an eviction), 0 for
 * fresh/duplicate/failed stores — the stats counters want the split.
 * Slots never empty again, so a bucket fills front to back. */
static int purec_memo_store(purec_memo_word key, const purec_memo_word* kw,
                            unsigned kn, purec_memo_word value) {
  purec_memo_slot* t = purec_memo_self;
  purec_memo_word idx = purec_memo_bucket(key);
  unsigned i, w;
  int evicted;
  if (PUREC_MEMO_VERIFY && kn > PUREC_MEMO_VWORDS) return 0; /* too wide */
  if (t == 0 && (t = purec_memo_alloc()) == 0) return 0;
  for (i = 0; i < PUREC_MEMO_WAYS; i++, idx++) {
    if (t[idx].tag == 0) break;
    if (t[idx].tag != key) continue;
    /* Resident: the value is identical, unless under verify the resident
     * entry is a fingerprint alias, which must be replaced or this key
     * would miss forever. */
    if (!PUREC_MEMO_VERIFY || purec_memo_same(t, idx, kw, kn)) return 0;
    break;
  }
  /* A full bucket: the key's top two bits pick the slot it takes over
   * (the bucket index uses the low bits). */
  if (i == PUREC_MEMO_WAYS) idx = purec_memo_bucket(key) + (key >> 62);
  evicted = t[idx].tag != 0;
  t[idx].tag = key;
  t[idx].value = value;
  if (PUREC_MEMO_VERIFY) {
    purec_memo_word* rec =
        (purec_memo_word*)(t + purec_memo_cap) + idx * PUREC_MEMO_VREC;
    rec[0] = kn;
    for (w = 0; w < kn; w++) rec[1 + w] = kw[w];
  }
  return evicted;
}

/* Admission gate, one per thunk per thread (a zeroed static __thread):
 * the thunk asks it before building a key, and a call it turns away goes
 * straight to the callee, which can never return a wrong value. Calls
 * are judged in windows of PUREC_MEMO_WINDOW. A window with fewer than
 * 1/PUREC_MEMO_HIT_DIV hits sends the next PUREC_MEMO_WINDOW << backoff
 * calls past the table, backoff being the failed windows before this
 * one in a row (capped at PUREC_MEMO_BACKOFF_MAX); the window after that
 * stretch probes the table again, and one that earns hits resets
 * backoff. A thread's first window is never judged: it starts on a table
 * that holds none of the thunk's keys, so hot traffic over many keys
 * misses on each of them once. A second probe window follows it, and that
 * one is judged.
 *
 * `left` encodes the mode. In a probe window it counts the calls left in
 * it, down to 0; in a bypass stretch it is INT_MIN plus the calls left in
 * the stretch, and the stretch's last call opens the next window. So a
 * hit pays one thread-local decrement and sign test: only a negative
 * count leaves the hit path, for a bypassed call or, at -1 (a window's
 * end, or the zeroed first call), for the out-of-line judge. Misses are
 * counted by the thunk's miss path; a probe window's hits are the rest.
 *
 * The constants: a window of 1024 calls makes the judge's call rare
 * (one per 1024) and fills at most an eighth of the default table, so a
 * window of distinct keys evicts little. Below 1 hit in 8 calls, seven
 * misses (key mixes, two bucket scans, an insert) must be paid from one
 * saved callee call, which loses unless the callee is many times dearer
 * than a probe. Capping the backoff at 10 bounds a stretch at 2^20
 * calls: a thunk whose traffic turns hot waits at most that long, and a
 * cold one spends under 0.1% of its calls on probe windows. */
#define PUREC_MEMO_WINDOW 1024u
#define PUREC_MEMO_HIT_DIV 8u
#define PUREC_MEMO_BACKOFF_MAX 10u
#define PUREC_MEMO_BYPASS (-0x7fffffff - 1) /* INT_MIN: stretch's end */

typedef struct {
  int left;         /* see above */
  unsigned misses;  /* in the current probe window */
  unsigned backoff; /* failed windows in a row, capped */
  unsigned opened;  /* probe windows opened, counted up to 2 */
} purec_memo_gate;

/* At the end of a probe window: 0 opens another probe window, 1 starts a
 * bypass stretch with this call. The zeroed gate's first call opens the
 * thread's first window, and that window's end opens the second one
 * without judging it. */
__attribute__((noinline, cold)) static int purec_memo_gate_judge(
    purec_memo_gate* g) {
  const unsigned hits = PUREC_MEMO_WINDOW - g->misses;
  const int unjudged = g->opened < 2;
  g->misses = 0;
  if (unjudged) g->opened++;
  if (unjudged || hits >= PUREC_MEMO_WINDOW / PUREC_MEMO_HIT_DIV) {
    g->backoff = 0;
    g->left = PUREC_MEMO_WINDOW - 1;
    return 0;
  }
  g->left = PUREC_MEMO_BYPASS + (int)(PUREC_MEMO_WINDOW << g->backoff) - 1;
  if (g->backoff < PUREC_MEMO_BACKOFF_MAX) g->backoff++;
  return 1;
}

/* 1 when this call skips the table. */
static inline int purec_memo_gate_skip(purec_memo_gate* g) {
  if (__builtin_expect(--g->left >= 0, 1)) return 0;
  if (g->left == -1) return purec_memo_gate_judge(g);
  if (g->left == PUREC_MEMO_BYPASS) g->left = PUREC_MEMO_WINDOW;
  return 1;
}

/* One key word holding two values of 32 bits or fewer (a float as its
 * bits, PUREC_MEMO_PACK_F32), each zero-extended from 32 bits: lo in the
 * low half, hi in the high half. A lone value packs with hi = 0. The thunk
 * folds each word into its key as k = purec_memo_mix(k ^ word). */
#define PUREC_MEMO_PAIR(lo, hi)            \
  ((purec_memo_word)(unsigned int)(lo) |   \
   ((purec_memo_word)(unsigned int)(hi) << 32))
#define PUREC_MEMO_PACK_F32(x) \
  ((purec_memo_word)((purec_memo_f32){(x)}).b)
#define PUREC_MEMO_PACK_F64(x) ((purec_memo_f64){(x)}).b
#define PUREC_MEMO_UNPACK_F32(w) \
  (((purec_memo_f32){.b = (unsigned int)(w)}).v)
#define PUREC_MEMO_UNPACK_F64(w) (((purec_memo_f64){.b = (w)}).v)
#endif
static float purec_memo_shade(int purec_a0);
float gain;
float shade(int v)
{
  float x = (float)v * 0.0625f + 1.0f;
  float y = x;
  {
    for (int t1 = 0; t1 <= 7; t1++)
    {
      y = 0.5f * (y + x / y);
    }
  }
  return y * gain;
}
void render(int* vals, float* out, int n)
{
  {
#pragma omp parallel for
    for (int t1 = 0; t1 <= n - 1; t1++)
    {
      out[t1] = purec_memo_shade(vals[t1]);
    }
  }
}
int main()
{
  int n = 65536;
  int* vals = (int*)malloc(n * sizeof(int));
  float* out = (float*)malloc(n * sizeof(float));
  gain = 0.75f;
  for (int i = 0; i < n / 2; i++)
    vals[i] = i * 7 + 100;
  for (int i = n / 2; i < n; i++)
    vals[i] = (i * 37 + 11) % 32;
  {
#pragma omp parallel for simd
    for (int t1 = 0; t1 <= n - 1; t1++)
    {
      out[t1] = 0.0f;
    }
  }
  render(vals, out, n);
  double checksum = 0.0;
  {
    for (int t1 = 0; t1 <= n - 1; t1++)
    {
      checksum += (double)out[t1] * (t1 % 9);
    }
  }
  printf("checksum %.6f\n", checksum);
  return 0;
}

static __thread purec_memo_gate purec_memo_gate_shade;
static float purec_memo_shade(int purec_a0) {
  purec_memo_word purec_key = 0x6de592493a8ba3aaULL;
  purec_memo_word purec_word;
  purec_memo_word purec_kw[1];
  float purec_result;
  if (purec_memo_gate_skip(&purec_memo_gate_shade)) {
    purec_key = 0;
  } else {
    purec_kw[0] = PUREC_MEMO_PAIR(purec_a0, PUREC_MEMO_PACK_F32(gain));
    purec_key = purec_memo_mix(purec_key ^ purec_kw[0]);
    if (purec_key != 0 &&
        purec_memo_lookup(purec_key, purec_kw, 1, &purec_word)) {
      return PUREC_MEMO_UNPACK_F32(purec_word);
    }
    purec_memo_gate_shade.misses++;
  }
  purec_result = shade(purec_a0);
  if (purec_key != 0)
    purec_memo_store(purec_key, purec_kw, 1, PUREC_MEMO_PACK_F32(purec_result));
  return purec_result;
}
