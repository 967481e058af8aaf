# Runs the suite orchestrator twice against one fresh cache directory — a
# cold pass (every session simulated, blobs stored) and a warm pass (every
# session served from disk) — and fails unless every bench's captured output
# is byte-identical between the passes, or the warm pass simulated anything.
# Invoked by ctest (see bench/CMakeLists.txt):
#
#   cmake -DBINARY=<run_suite> -DOUT=<scratch-dir> [-DEXTRA_ARGS=...]
#         -P suite_cache_determinism.cmake

# Compare what this build computes: a result-cache directory or a coalescing
# switch inherited from the calling shell must not decide the bytes (a warm
# RAVE_CACHE_DIR serves results from whatever build filled it).
unset(ENV{RAVE_CACHE_DIR})
unset(ENV{RAVE_CACHE_MAX_MB})
unset(ENV{RAVE_NO_COALESCE})

if(NOT DEFINED BINARY OR NOT DEFINED OUT)
  message(FATAL_ERROR "suite_cache_determinism.cmake needs -DBINARY and -DOUT")
endif()

file(REMOVE_RECURSE ${OUT})
file(MAKE_DIRECTORY ${OUT}/cache ${OUT}/cold ${OUT}/warm)

foreach(pass cold warm)
  execute_process(
    COMMAND ${BINARY} --cache-dir=${OUT}/cache --out-dir=${OUT}/${pass}
            ${EXTRA_ARGS}
    OUTPUT_FILE ${OUT}/${pass}/stdout.txt
    RESULT_VARIABLE rc)
  if(NOT rc EQUAL 0)
    message(FATAL_ERROR "${BINARY} (${pass} pass) failed (rc=${rc})")
  endif()
endforeach()

# The warm pass must be served entirely from the cache: its suite report
# (whose field order is fixed) must say zero sessions were simulated.
file(READ ${OUT}/warm/BENCH_suite.json warm_json)
if(NOT warm_json MATCHES "\"sessions_computed\": 0, \"memory_hits\"")
  message(FATAL_ERROR
          "warm pass simulated sessions instead of hitting the cache "
          "(${OUT}/warm/BENCH_suite.json)")
endif()

# Byte-identity: every bench's output must not depend on cache state.
file(GLOB cold_outputs ${OUT}/cold/BENCH_*.out)
if(cold_outputs STREQUAL "")
  message(FATAL_ERROR "cold pass produced no BENCH_*.out files in ${OUT}/cold")
endif()
foreach(cold_file IN LISTS cold_outputs)
  get_filename_component(base ${cold_file} NAME)
  execute_process(
    COMMAND ${CMAKE_COMMAND} -E compare_files ${cold_file} ${OUT}/warm/${base}
    RESULT_VARIABLE diff_rc)
  if(NOT diff_rc EQUAL 0)
    message(FATAL_ERROR
            "${base}: output differs between cold and warm cache passes "
            "(${cold_file} vs ${OUT}/warm/${base})")
  endif()
endforeach()
