#ifndef PUREC_MEMO_RUNTIME
#define PUREC_MEMO_RUNTIME
/* Concurrent memoization table for pure-call results: sharded,
 * cache-line padded, open addressing within an 8-slot probe window,
 * per-slot seqlock publication (a torn read is a safe miss), clock
 * second-chance eviction when a window fills. Knobs: PUREC_MEMO_SHARDS,
 * PUREC_MEMO_CAP (total slots), PUREC_MEMO_STATS=1 (per-thunk
 * hit/miss/eviction counters dumped at exit to the shared stats stream —
 * PUREC_STATS_FILE or stderr, see purec_stats_out(); counters are dead
 * branches when the knob is off). The table is private to the process.
 * Full-key verification is compile-time only: PUREC_MEMO_VERIFY=1
 * (--memoize=verify emits it) stores the raw key words next to each slot
 * and compares them on a hit, so a fingerprint alias degrades to a miss
 * instead of a wrong value; at 0 every verify branch folds away.
 *
 * Read-mostly: a hit on a warm slot only loads. The clock bit is stored
 * only when it reads clear, the eviction sweep clears only set bits, and
 * the stats counters live in per-thread cache lines, so threads hitting
 * the same keys never write a line another thread reads. */
#ifndef PUREC_MEMO_VERIFY
#define PUREC_MEMO_VERIFY 0
#endif
typedef unsigned long long purec_memo_word;
typedef union { float v; unsigned int b; } purec_memo_f32;
typedef union { double v; purec_memo_word b; } purec_memo_f64;

/* Widest key tuple (in 64-bit words) a verify record can hold; wider
 * tuples bypass the cache under verify (a permanent, safe miss). */
#define PUREC_MEMO_VWORDS 12u

/* Stats counters are striped: each thunk owns PUREC_MEMO_STAT_CELLS
 * cache-line cells, a thread counts into the cell its first count picked,
 * and the dump sums the cells. Threads share a cell only past that many
 * threads, so the adds stay atomic. */
#define PUREC_MEMO_STAT_CELLS 16u

typedef struct {
  purec_memo_word hits, misses, evictions;
} __attribute__((aligned(64))) purec_memo_stat_cell;

typedef struct {
  const char* name;
  purec_memo_stat_cell cells[PUREC_MEMO_STAT_CELLS];
} purec_memo_stats_entry;

static purec_memo_stats_entry* purec_memo_stats_tables[64];
static unsigned purec_memo_stats_count;
static unsigned purec_memo_stats_dropped;
static int purec_memo_stats_on; /* PUREC_MEMO_STATS=1 */
static unsigned purec_memo_stat_threads;
static __thread unsigned purec_memo_stat_ticket; /* 0 until first count */

static void purec_memo_stats_dump(void) {
  unsigned i, c;
  if (purec_memo_stats_dropped != 0)
    fprintf(purec_stats_out(),
            "purec-memo: %u thunk counter(s) not shown (registry full)\n",
            purec_memo_stats_dropped);
  for (i = 0; i < purec_memo_stats_count; i++) {
    purec_memo_stats_entry* e = purec_memo_stats_tables[i];
    purec_memo_word hits = 0, misses = 0, evictions = 0;
    for (c = 0; c < PUREC_MEMO_STAT_CELLS; c++) {
      hits += __atomic_load_n(&e->cells[c].hits, __ATOMIC_RELAXED);
      misses += __atomic_load_n(&e->cells[c].misses, __ATOMIC_RELAXED);
      evictions +=
          __atomic_load_n(&e->cells[c].evictions, __ATOMIC_RELAXED);
    }
    fprintf(purec_stats_out(),
            "purec-memo[%s] hits=%llu misses=%llu evictions=%llu\n",
            e->name, (unsigned long long)hits, (unsigned long long)misses,
            (unsigned long long)evictions);
  }
}

/* Thunk registrars run as constructors too; registration is
 * unconditional (the env gate lives on the counting and the dump) so
 * constructor order cannot drop a table. */
static void purec_memo_stats_register(purec_memo_stats_entry* e) {
  if (purec_memo_stats_count <
      sizeof(purec_memo_stats_tables) / sizeof(purec_memo_stats_tables[0]))
    purec_memo_stats_tables[purec_memo_stats_count++] = e;
  else
    purec_memo_stats_dropped++;
}

/* The calling thread's cell index, assigned on its first count. */
static unsigned purec_memo_stat_index(void) {
  if (purec_memo_stat_ticket == 0)
    purec_memo_stat_ticket =
        __atomic_add_fetch(&purec_memo_stat_threads, 1u, __ATOMIC_RELAXED);
  return purec_memo_stat_ticket % PUREC_MEMO_STAT_CELLS;
}

#define PUREC_MEMO_STAT_INC(entry, counter)                            \
  do {                                                                 \
    if (purec_memo_stats_on)                                           \
      __atomic_fetch_add(                                              \
          &(entry).cells[purec_memo_stat_index()].counter, 1ULL,       \
          __ATOMIC_RELAXED);                                           \
  } while (0)

typedef struct {
  purec_memo_word seq;   /* even = stable, odd = mid-write */
  purec_memo_word tag;   /* key fingerprint; 0 = empty */
  purec_memo_word value;
  purec_memo_word ref;   /* clock second-chance bit */
} purec_memo_slot;

typedef struct {
  purec_memo_slot* slots;
  purec_memo_word* vwords; /* verify mode: [count, words...] per slot */
  purec_memo_word slot_mask;
  char pad[64 - sizeof(purec_memo_slot*) - sizeof(purec_memo_word*) -
           sizeof(purec_memo_word)];
} purec_memo_shard;

static purec_memo_shard* purec_memo_shards;
static purec_memo_word purec_memo_shard_mask;
static unsigned purec_memo_probe = 8u;
static int purec_memo_ready;  /* 0 until init allocates successfully */

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

static purec_memo_word purec_memo_pow2(purec_memo_word v) {
  purec_memo_word p = 1;
  while (p <= v / 2) p *= 2;
  return p;
}

__attribute__((constructor)) static void purec_memo_init(void) {
  purec_memo_word shards =
      purec_memo_pow2(purec_memo_env("PUREC_MEMO_SHARDS", 8));
  purec_memo_word cap = purec_memo_env("PUREC_MEMO_CAP", 65536);
  purec_memo_word per, s, nslots;
  purec_memo_slot* slots;
  purec_memo_word* vwords = 0;
  const char* stats = getenv("PUREC_MEMO_STATS");
  purec_memo_stats_on = stats != 0 && stats[0] == '1';
  if (purec_memo_stats_on) atexit(purec_memo_stats_dump);
  if (cap < shards) shards = purec_memo_pow2(cap);
  per = purec_memo_pow2(cap / shards);
  nslots = shards * per;
  slots = (purec_memo_slot*)calloc(nslots, sizeof(purec_memo_slot));
  if (slots == 0) return; /* no table: every call computes */
  if (PUREC_MEMO_VERIFY) {
    vwords = (purec_memo_word*)calloc(
        (size_t)nslots * (1u + PUREC_MEMO_VWORDS), sizeof(purec_memo_word));
    if (vwords == 0) return;
  }
  purec_memo_shards =
      (purec_memo_shard*)calloc(shards, sizeof(purec_memo_shard));
  if (purec_memo_shards == 0) return;
  for (s = 0; s < shards; s++) {
    purec_memo_shards[s].slots = slots + s * per;
    purec_memo_shards[s].vwords =
        PUREC_MEMO_VERIFY ? vwords + s * per * (1u + PUREC_MEMO_VWORDS) : 0;
    purec_memo_shards[s].slot_mask = per - 1;
  }
  purec_memo_shard_mask = shards - 1;
  if (purec_memo_probe > per) purec_memo_probe = (unsigned)per;
  purec_memo_ready = 1;
}

static int purec_memo_lookup(purec_memo_word key,
                             const purec_memo_word* kw, unsigned kn,
                             purec_memo_word* value) {
  purec_memo_shard* sh;
  unsigned i, w;
  if (!purec_memo_ready) return 0;
  if (PUREC_MEMO_VERIFY && kn > PUREC_MEMO_VWORDS) return 0; /* too wide */
  sh = &purec_memo_shards[(key >> 40) & purec_memo_shard_mask];
  for (i = 0; i < purec_memo_probe; i++) {
    purec_memo_word idx = (key + i) & sh->slot_mask;
    purec_memo_slot* s = &sh->slots[idx];
    purec_memo_word s1 = __atomic_load_n(&s->seq, __ATOMIC_ACQUIRE);
    purec_memo_word tag, val;
    int verified = 1;
    if (s1 & 1u) continue;
    /* Acquire data loads keep the seq re-check below after them, so no
     * standalone fence is needed; on x86 all of these are plain moves. */
    tag = __atomic_load_n(&s->tag, __ATOMIC_ACQUIRE);
    val = __atomic_load_n(&s->value, __ATOMIC_ACQUIRE);
    if (PUREC_MEMO_VERIFY && tag == key) {
      const purec_memo_word* rec =
          sh->vwords + idx * (1u + PUREC_MEMO_VWORDS);
      verified = __atomic_load_n(&rec[0], __ATOMIC_ACQUIRE) == kn;
      for (w = 0; verified && w < kn; w++)
        verified = __atomic_load_n(&rec[1 + w], __ATOMIC_ACQUIRE) == kw[w];
    }
    if (__atomic_load_n(&s->seq, __ATOMIC_RELAXED) != s1) continue;
    if (tag == key) {
      if (!verified) return 0; /* fingerprint alias: recompute */
      *value = val;
      /* Store the clock bit only when clear: a warm hit writes nothing. */
      if (__atomic_load_n(&s->ref, __ATOMIC_RELAXED) == 0)
        __atomic_store_n(&s->ref, 1, __ATOMIC_RELAXED);
      return 1;
    }
    if (tag == 0) return 0;
  }
  return 0;
}

static int purec_memo_claim(purec_memo_shard* sh, purec_memo_word idx,
                            purec_memo_word key, purec_memo_word value,
                            const purec_memo_word* kw, unsigned kn) {
  purec_memo_slot* s = &sh->slots[idx];
  purec_memo_word s1 = __atomic_load_n(&s->seq, __ATOMIC_RELAXED);
  unsigned w;
  if (s1 & 1u) return 0;
  if (!__atomic_compare_exchange_n(&s->seq, &s1, s1 + 1, 0,
                                   __ATOMIC_ACQUIRE, __ATOMIC_RELAXED))
    return 0;
  /* Release data stores: a reader whose acquire load sees new data also
   * sees the odd seq when it re-checks, and treats the slot as a miss. */
  __atomic_store_n(&s->tag, key, __ATOMIC_RELEASE);
  __atomic_store_n(&s->value, value, __ATOMIC_RELEASE);
  __atomic_store_n(&s->ref, 0, __ATOMIC_RELAXED);
  if (PUREC_MEMO_VERIFY) {
    purec_memo_word* rec = sh->vwords + idx * (1u + PUREC_MEMO_VWORDS);
    __atomic_store_n(&rec[0], (purec_memo_word)kn, __ATOMIC_RELEASE);
    for (w = 0; w < kn; w++)
      __atomic_store_n(&rec[1 + w], kw[w], __ATOMIC_RELEASE);
  }
  __atomic_store_n(&s->seq, s1 + 2, __ATOMIC_RELEASE);
  return 1;
}

/* Returns 1 when the store displaced a live entry (an eviction), 0 for
 * fresh/duplicate/failed stores — the stats counters want the split. */
static int purec_memo_store(purec_memo_word key, const purec_memo_word* kw,
                            unsigned kn, purec_memo_word value) {
  purec_memo_shard* sh;
  unsigned i, w;
  purec_memo_word old_tag;
  if (!purec_memo_ready) return 0;
  if (PUREC_MEMO_VERIFY && kn > PUREC_MEMO_VWORDS) return 0;
  sh = &purec_memo_shards[(key >> 40) & purec_memo_shard_mask];
  for (i = 0; i < purec_memo_probe; i++) {
    purec_memo_word idx = (key + i) & sh->slot_mask;
    purec_memo_slot* s = &sh->slots[idx];
    purec_memo_word tag = __atomic_load_n(&s->tag, __ATOMIC_RELAXED);
    if (tag == key) {
      int same;
      if (!PUREC_MEMO_VERIFY) return 0; /* resident value is identical */
      /* Under verify a resident fingerprint alias must be replaced or
       * this key would miss forever; the unlocked compare only risks one
       * redundant republish. */
      {
        const purec_memo_word* rec =
            sh->vwords + idx * (1u + PUREC_MEMO_VWORDS);
        same = __atomic_load_n(&rec[0], __ATOMIC_RELAXED) == kn;
        for (w = 0; same && w < kn; w++)
          same = __atomic_load_n(&rec[1 + w], __ATOMIC_RELAXED) == kw[w];
      }
      if (same) return 0;
      if (purec_memo_claim(sh, idx, key, value, kw, kn)) return 1;
      continue;
    }
    if (tag == 0 && purec_memo_claim(sh, idx, key, value, kw, kn)) return 0;
  }
  for (i = 0; i < purec_memo_probe; i++) {
    purec_memo_word idx = (key + i) & sh->slot_mask;
    purec_memo_slot* s = &sh->slots[idx];
    /* Second chance: clear a set bit and move on. Loading first keeps
     * the sweep from writing lines whose bit is already clear. */
    if (__atomic_load_n(&s->ref, __ATOMIC_RELAXED) != 0) {
      __atomic_store_n(&s->ref, 0, __ATOMIC_RELAXED);
      continue;
    }
    old_tag = __atomic_load_n(&s->tag, __ATOMIC_RELAXED);
    if (purec_memo_claim(sh, idx, key, value, kw, kn))
      return old_tag != 0 && old_tag != key;
  }
  {
    purec_memo_word idx = key & sh->slot_mask;
    purec_memo_slot* s = &sh->slots[idx];
    old_tag = __atomic_load_n(&s->tag, __ATOMIC_RELAXED);
    if (purec_memo_claim(sh, idx, key, value, kw, kn))
      return old_tag != 0 && old_tag != key;
  }
  return 0;
}

#define PUREC_MEMO_KEY_F32(k, kw, n, x)                                \
  do {                                                                 \
    purec_memo_f32 purec_u;                                            \
    purec_u.v = (x);                                                   \
    (kw)[(n)] = (purec_memo_word)purec_u.b;                            \
    (k) = purec_memo_mix((k) ^ (kw)[(n)]);                             \
    (n)++;                                                             \
  } while (0)
#define PUREC_MEMO_KEY_F64(k, kw, n, x)                                \
  do {                                                                 \
    purec_memo_f64 purec_u;                                            \
    purec_u.v = (x);                                                   \
    (kw)[(n)] = purec_u.b;                                             \
    (k) = purec_memo_mix((k) ^ (kw)[(n)]);                             \
    (n)++;                                                             \
  } while (0)
#define PUREC_MEMO_KEY_INT(k, kw, n, x)                                \
  do {                                                                 \
    (kw)[(n)] = (purec_memo_word)(x);                                  \
    (k) = purec_memo_mix((k) ^ (kw)[(n)]);                             \
    (n)++;                                                             \
  } while (0)
#define PUREC_MEMO_PACK_F32(x) \
  ((purec_memo_word)((purec_memo_f32){(x)}).b)
#define PUREC_MEMO_PACK_F64(x) ((purec_memo_f64){(x)}).b
#define PUREC_MEMO_UNPACK_F32(w) \
  (((purec_memo_f32){.b = (unsigned int)(w)}).v)
#define PUREC_MEMO_UNPACK_F64(w) (((purec_memo_f64){.b = (w)}).v)
#endif
