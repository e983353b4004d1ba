
/* Shared stats stream: every exit-time dump (memo counters, --instrument
 * region summaries) resolves its destination here, so the lines land on
 * one stream and never interleave with program stdout. PUREC_STATS_FILE
 * names an append-mode file; unset or unopenable falls back to stderr. */
static FILE* purec_stats_out(void) {
  static FILE* purec_stats_stream;
  const char* purec_stats_path;
  if (purec_stats_stream != 0) return purec_stats_stream;
  purec_stats_path = getenv("PUREC_STATS_FILE");
  if (purec_stats_path != 0 && purec_stats_path[0] != 0) {
    purec_stats_stream = fopen(purec_stats_path, "a");
  }
  if (purec_stats_stream == 0) purec_stats_stream = stderr;
  return purec_stats_stream;
}
