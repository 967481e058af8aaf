# Suite-metrics determinism gate: runs run_suite twice against one cache
# directory (cold pass simulates and stores, warm pass serves from disk)
# and fails unless the BENCH_suite.json "metrics" section — the merged
# per-session metric registries — is identical between the passes. Cached
# sessions carry the exact snapshot their original simulation produced, so
# any divergence means nondeterministic values leaked into the registries.
#
# Host-side lines (wall clock, cache statistics, the whole "runtime"
# section) legitimately differ run-to-run and are filtered out before the
# comparison.
#
#   cmake -DBINARY=<run_suite> -DOUT=<scratch-dir> [-DEXTRA_ARGS=...]
#         -P suite_metrics_determinism.cmake

# Compare what this build computes: a result-cache directory or a coalescing
# switch inherited from the calling shell must not decide the bytes (a warm
# RAVE_CACHE_DIR serves results from whatever build filled it).
unset(ENV{RAVE_CACHE_DIR})
unset(ENV{RAVE_CACHE_MAX_MB})
unset(ENV{RAVE_NO_COALESCE})

if(NOT DEFINED BINARY OR NOT DEFINED OUT)
  message(FATAL_ERROR "suite_metrics_determinism.cmake needs -DBINARY/-DOUT")
endif()

file(REMOVE_RECURSE ${OUT})
file(MAKE_DIRECTORY ${OUT}/cache ${OUT}/cold ${OUT}/warm)

foreach(pass cold warm)
  execute_process(
    COMMAND ${BINARY} --cache-dir=${OUT}/cache --out-dir=${OUT}/${pass}
            ${EXTRA_ARGS}
    OUTPUT_QUIET
    RESULT_VARIABLE rc)
  if(NOT rc EQUAL 0)
    message(FATAL_ERROR "${BINARY} (${pass} pass) failed (rc=${rc})")
  endif()
endforeach()

# Strip the lines that may legitimately differ: per-bench/total wall-clock
# and cache-statistics lines, plus everything from "runtime": onward.
foreach(pass cold warm)
  file(READ ${OUT}/${pass}/BENCH_suite.json json)
  string(REGEX REPLACE "\"runtime\": .*" "" json "${json}")
  set(filtered "")
  string(REPLACE "\n" ";" lines "${json}")
  foreach(line IN LISTS lines)
    if(line MATCHES "wall_ms|saved_ms|speedup|hits|computed|stores|corrupt|evictions|cache_dir")
      continue()
    endif()
    string(APPEND filtered "${line}\n")
  endforeach()
  file(WRITE ${OUT}/${pass}/metrics_filtered.txt "${filtered}")
endforeach()

execute_process(
  COMMAND ${CMAKE_COMMAND} -E compare_files
          ${OUT}/cold/metrics_filtered.txt ${OUT}/warm/metrics_filtered.txt
  RESULT_VARIABLE diff_rc)
if(NOT diff_rc EQUAL 0)
  message(FATAL_ERROR
          "BENCH_suite.json metrics differ between cold and warm cache "
          "passes (${OUT}/cold/metrics_filtered.txt vs "
          "${OUT}/warm/metrics_filtered.txt)")
endif()

# Sanity: the filtered report must still contain the metrics section, or
# the comparison proves nothing.
file(READ ${OUT}/cold/metrics_filtered.txt cold_filtered)
if(NOT cold_filtered MATCHES "\"metrics\": \\[")
  message(FATAL_ERROR "filtered report lost the metrics section")
endif()
if(NOT cold_filtered MATCHES "\"kind\": ")
  message(FATAL_ERROR "metrics section is empty — no session metrics merged")
endif()
