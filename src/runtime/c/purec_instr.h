
/* --instrument runtime: per-region invocation/wall-time counters and
 * per-worker chunk tallies. Workers bump their own cache-line-padded cell
 * with a relaxed __atomic add (the per-CPU counter pattern), so the hot
 * path is one padded add per claimed outer iteration — no lock, no shared
 * line. Each region's registrar links it into one list, kept in region-id
 * order, so no fixed table caps the region count. The atexit dump writes
 * a human summary (invocations, total wall time, per-worker tallies) to
 * purec_stats_out(); with PUREC_TRACE=FILE set it instead writes Chrome
 * trace-event JSON (one "X" duration event per region execution carrying
 * the region's stable id in args, one "C" counter event per region with
 * the per-worker totals, "M" metadata naming process and thread) for
 * chrome://tracing or Perfetto. The trace is the one per-execution
 * latency record: `purecc trace` reads its percentiles from the "X"
 * events. The trace file is a bare JSON array,
 * cooperatively appended: an existing array at the path (for example an
 * earlier run's dump) has its closing bracket replaced by a comma and the
 * new events spliced in, so any number of sequential dumps to one path
 * remain one valid timeline. */
typedef unsigned long long purec_instr_u64;
/* Threads 0..62 each count in a lane of their own; every thread from 63
 * up shares the last lane, shown as "w63+" in the summary and the trace
 * (purecc trace leaves it out of the imbalance). */
#define PUREC_INSTR_MAX_WORKERS 64
#define PUREC_INSTR_TRACE_CAP 65536
typedef struct {
  purec_instr_u64 count;
  char purec_pad[56];
} purec_instr_cell;
typedef struct purec_instr_region {
  const char* name; /* "function:line" of the transformed nest */
  unsigned id;      /* stable region id; joins report scops[].region_id */
  struct purec_instr_region* next; /* registry link, ascending id */
  purec_instr_u64 invocations;
  purec_instr_u64 total_ns;
  purec_instr_cell chunks[PUREC_INSTR_MAX_WORKERS];
} purec_instr_region_t;
typedef struct {
  const purec_instr_region_t* region;
  purec_instr_u64 begin_ns;
  purec_instr_u64 end_ns;
} purec_instr_event;

static purec_instr_region_t* purec_instr_regions;
static purec_instr_event* purec_instr_events;
static unsigned long purec_instr_event_next;

#ifdef _OPENMP
int omp_get_thread_num(void);
#endif

static purec_instr_u64 purec_instr_now(void) {
  struct timespec purec_instr_ts;
  clock_gettime(CLOCK_MONOTONIC, &purec_instr_ts);
  return (purec_instr_u64)purec_instr_ts.tv_sec * 1000000000ULL +
         (purec_instr_u64)purec_instr_ts.tv_nsec;
}

static void purec_instr_chunk(purec_instr_region_t* purec_r) {
  unsigned purec_w = 0;
#ifdef _OPENMP
  purec_w = (unsigned)omp_get_thread_num();
  if (purec_w > PUREC_INSTR_MAX_WORKERS - 1) {
    purec_w = PUREC_INSTR_MAX_WORKERS - 1;
  }
#endif
  __atomic_fetch_add(&purec_r->chunks[purec_w].count, 1ULL,
                     __ATOMIC_RELAXED);
}

static void purec_instr_region_done(purec_instr_region_t* purec_r,
                                    purec_instr_u64 purec_begin_ns) {
  purec_instr_u64 purec_end_ns = purec_instr_now();
  __atomic_fetch_add(&purec_r->invocations, 1ULL, __ATOMIC_RELAXED);
  __atomic_fetch_add(&purec_r->total_ns, purec_end_ns - purec_begin_ns,
                     __ATOMIC_RELAXED);
  if (purec_instr_events != 0) {
    unsigned long purec_slot = __atomic_fetch_add(
        &purec_instr_event_next, 1UL, __ATOMIC_RELAXED);
    if (purec_slot < PUREC_INSTR_TRACE_CAP) {
      purec_instr_events[purec_slot].region = purec_r;
      purec_instr_events[purec_slot].begin_ns = purec_begin_ns;
      purec_instr_events[purec_slot].end_ns = purec_end_ns;
    }
  }
}

/* Links a region into the registry, which stays sorted by id whatever
 * order the constructors run in. */
static void purec_instr_register(purec_instr_region_t* purec_r) {
  purec_instr_region_t** purec_at = &purec_instr_regions;
  while (*purec_at != 0 && (*purec_at)->id < purec_r->id) {
    purec_at = &(*purec_at)->next;
  }
  purec_r->next = *purec_at;
  *purec_at = purec_r;
}

/* Opens the trace path for a cooperative array append: a fresh or empty
 * file starts a new array (*purec_first = 1); an existing file ending in
 * ']' is positioned ON that bracket so the dump's leading ',' overwrites
 * it and the array keeps growing. Any other tail is appended to as a
 * fresh array — never corrupt what we do not understand. */
static FILE* purec_instr_trace_open(const char* purec_path,
                                    int* purec_first) {
  FILE* purec_out;
  long purec_size, purec_n, purec_k;
  char purec_tail[8];
  *purec_first = 1;
  purec_out = fopen(purec_path, "r+");
  if (purec_out == 0) return fopen(purec_path, "w");
  fseek(purec_out, 0, SEEK_END);
  purec_size = ftell(purec_out);
  if (purec_size <= 0) return purec_out;
  purec_n = purec_size < 8 ? purec_size : 8;
  fseek(purec_out, purec_size - purec_n, SEEK_SET);
  if (fread(purec_tail, 1, (size_t)purec_n, purec_out) !=
      (size_t)purec_n) {
    fseek(purec_out, 0, SEEK_END);
    return purec_out;
  }
  for (purec_k = purec_n - 1; purec_k >= 0; purec_k--) {
    char purec_c = purec_tail[purec_k];
    if (purec_c == ']') {
      fseek(purec_out, purec_size - purec_n + purec_k, SEEK_SET);
      *purec_first = 0;
      return purec_out;
    }
    if (purec_c != ' ' && purec_c != '\n' && purec_c != '\r' &&
        purec_c != '\t') {
      break;
    }
  }
  fseek(purec_out, 0, SEEK_END);
  return purec_out;
}

static void purec_instr_dump(void) {
  const char* purec_trace_path = getenv("PUREC_TRACE");
  const purec_instr_region_t* purec_r;
  unsigned purec_w;
  if (purec_trace_path != 0 && purec_trace_path[0] != 0 &&
      purec_instr_events != 0) {
    int purec_first = 1;
    FILE* purec_out =
        purec_instr_trace_open(purec_trace_path, &purec_first);
    if (purec_out != 0) {
      unsigned long purec_n = __atomic_load_n(&purec_instr_event_next,
                                              __ATOMIC_RELAXED);
      unsigned long purec_dropped = 0;
      unsigned long purec_k;
      if (purec_n > PUREC_INSTR_TRACE_CAP) {
        purec_dropped = purec_n - PUREC_INSTR_TRACE_CAP;
        purec_n = PUREC_INSTR_TRACE_CAP;
      }
      fputc(purec_first ? '[' : ',', purec_out);
      fprintf(purec_out,
              "\n{\"name\":\"process_name\",\"ph\":\"M\",\"pid\":1,"
              "\"args\":{\"name\":\"purec-instr\"}}");
      fprintf(purec_out,
              ",\n{\"name\":\"thread_name\",\"ph\":\"M\",\"pid\":1,"
              "\"tid\":1,\"args\":{\"name\":\"main\"}}");
      for (purec_k = 0; purec_k < purec_n; purec_k++) {
        const purec_instr_event* purec_e = &purec_instr_events[purec_k];
        fprintf(purec_out,
                ",\n{\"name\":\"%s\",\"cat\":\"region\",\"ph\":\"X\","
                "\"pid\":1,\"tid\":1,\"ts\":%.3f,\"dur\":%.3f,"
                "\"args\":{\"region_id\":%u}}",
                purec_e->region->name,
                (double)purec_e->begin_ns / 1000.0,
                (double)(purec_e->end_ns - purec_e->begin_ns) / 1000.0,
                purec_e->region->id);
      }
      for (purec_r = purec_instr_regions; purec_r != 0;
           purec_r = purec_r->next) {
        int purec_any = 0;
        for (purec_w = 0; purec_w < PUREC_INSTR_MAX_WORKERS; purec_w++) {
          if (purec_r->chunks[purec_w].count != 0) purec_any = 1;
        }
        if (!purec_any) continue;
        fprintf(purec_out,
                ",\n{\"name\":\"%s chunks\",\"ph\":\"C\",\"pid\":1,"
                "\"ts\":%.3f,\"args\":{",
                purec_r->name, (double)purec_instr_now() / 1000.0);
        {
          int purec_first_arg = 1;
          for (purec_w = 0; purec_w < PUREC_INSTR_MAX_WORKERS;
               purec_w++) {
            if (purec_r->chunks[purec_w].count == 0) continue;
            fprintf(purec_out, "%s\"w%u%s\":%llu",
                    purec_first_arg ? "" : ",", purec_w,
                    purec_w == PUREC_INSTR_MAX_WORKERS - 1 ? "+" : "",
                    purec_r->chunks[purec_w].count);
            purec_first_arg = 0;
          }
        }
        fprintf(purec_out, "}}");
      }
      if (purec_dropped != 0) {
        fprintf(purec_out,
                ",\n{\"name\":\"purec: trace ring overflow\","
                "\"ph\":\"i\",\"pid\":1,\"tid\":1,\"ts\":%.3f,"
                "\"s\":\"g\",\"args\":{\"dropped\":%lu}}",
                (double)purec_instr_now() / 1000.0, purec_dropped);
      }
      fprintf(purec_out, "\n]\n");
      fclose(purec_out);
      return;
    }
  }
  for (purec_r = purec_instr_regions; purec_r != 0;
       purec_r = purec_r->next) {
    if (purec_r->invocations == 0) continue;
    fprintf(purec_stats_out(),
            "purec-instr[%s] invocations=%llu total_ns=%llu",
            purec_r->name, purec_r->invocations, purec_r->total_ns);
    for (purec_w = 0; purec_w < PUREC_INSTR_MAX_WORKERS; purec_w++) {
      if (purec_r->chunks[purec_w].count == 0) continue;
      fprintf(purec_stats_out(), " w%u%s=%llu", purec_w,
              purec_w == PUREC_INSTR_MAX_WORKERS - 1 ? "+" : "",
              purec_r->chunks[purec_w].count);
    }
    fprintf(purec_stats_out(), "\n");
  }
}

__attribute__((constructor)) static void purec_instr_init(void) {
  const char* purec_trace_path = getenv("PUREC_TRACE");
  if (purec_trace_path != 0 && purec_trace_path[0] != 0) {
    purec_instr_events = (purec_instr_event*)calloc(
        PUREC_INSTR_TRACE_CAP, sizeof(purec_instr_event));
  }
  atexit(purec_instr_dump);
}
