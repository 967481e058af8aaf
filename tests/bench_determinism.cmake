# Runs a bench binary twice — serial (--jobs=1) and parallel (--jobs=8) —
# and fails unless the outputs are byte-identical. Invoked by ctest (see
# bench/CMakeLists.txt):
#
#   cmake -DBINARY=<path> -DOUT=<output-prefix> [-DEXTRA_ARGS=...]
#         -P bench_determinism.cmake

# Compare what this build computes: a result-cache directory or a coalescing
# switch inherited from the calling shell must not decide the bytes (a warm
# RAVE_CACHE_DIR serves results from whatever build filled it).
unset(ENV{RAVE_CACHE_DIR})
unset(ENV{RAVE_CACHE_MAX_MB})
unset(ENV{RAVE_NO_COALESCE})

if(NOT DEFINED BINARY OR NOT DEFINED OUT)
  message(FATAL_ERROR "bench_determinism.cmake needs -DBINARY and -DOUT")
endif()

execute_process(
  COMMAND ${BINARY} --jobs=1 ${EXTRA_ARGS}
  OUTPUT_FILE ${OUT}_serial.txt
  RESULT_VARIABLE serial_rc)
if(NOT serial_rc EQUAL 0)
  message(FATAL_ERROR "${BINARY} --jobs=1 failed (rc=${serial_rc})")
endif()

execute_process(
  COMMAND ${BINARY} --jobs=8 ${EXTRA_ARGS}
  OUTPUT_FILE ${OUT}_parallel.txt
  RESULT_VARIABLE parallel_rc)
if(NOT parallel_rc EQUAL 0)
  message(FATAL_ERROR "${BINARY} --jobs=8 failed (rc=${parallel_rc})")
endif()

execute_process(
  COMMAND ${CMAKE_COMMAND} -E compare_files
          ${OUT}_serial.txt ${OUT}_parallel.txt
  RESULT_VARIABLE diff_rc)
if(NOT diff_rc EQUAL 0)
  message(FATAL_ERROR
          "${BINARY}: output differs between --jobs=1 and --jobs=8 "
          "(${OUT}_serial.txt vs ${OUT}_parallel.txt)")
endif()
