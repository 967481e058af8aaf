# Runs a bench binary once per argument variant and fails unless every run's
# output is byte-identical to the first. Generalizes bench_determinism.cmake
# to execution knobs that must never change results (--jobs, cache
# temperature, RAVE_NO_COALESCE, in any combination). Invoked by ctest (see bench/CMakeLists.txt):
#
#   cmake -DBINARY=<path> -DOUT=<output-prefix>
#         "-DVARIANTS=--jobs=1|RAVE_NO_COALESCE=1 --jobs=8|..."
#         [-DEXTRA_ARGS=...] [-DCACHE_DIR=<dir>]
#         -P bench_variants_determinism.cmake
#
# Variants are separated by "|"; arguments within one variant by spaces.
# A variant token of the form NAME=value (no leading "--") is an environment
# variable for that run instead of a binary argument — e.g. the variant
# "RAVE_NO_COALESCE=1 --jobs=8" runs with event coalescing force-disabled.
# With CACHE_DIR set, the directory is removed first and every variant runs
# with --cache-dir=<dir>: the first run is a cold cache pass and the rest
# are warm, so the compare also gates cold-vs-warm byte-identity.

# Compare what this build computes: a result-cache directory or a coalescing
# switch inherited from the calling shell must not decide the bytes (a warm
# RAVE_CACHE_DIR serves results from whatever build filled it).
unset(ENV{RAVE_CACHE_DIR})
unset(ENV{RAVE_CACHE_MAX_MB})
unset(ENV{RAVE_NO_COALESCE})

if(NOT DEFINED BINARY OR NOT DEFINED OUT OR NOT DEFINED VARIANTS)
  message(FATAL_ERROR
          "bench_variants_determinism.cmake needs -DBINARY, -DOUT, -DVARIANTS")
endif()

if(DEFINED CACHE_DIR)
  file(REMOVE_RECURSE "${CACHE_DIR}")
  list(APPEND EXTRA_ARGS "--cache-dir=${CACHE_DIR}")
endif()

string(REPLACE "|" ";" variant_list "${VARIANTS}")
set(index 0)
foreach(variant IN LISTS variant_list)
  separate_arguments(variant_tokens UNIX_COMMAND "${variant}")
  set(env_args "")
  set(variant_args "")
  foreach(token IN LISTS variant_tokens)
    if(token MATCHES "^[A-Za-z_][A-Za-z0-9_]*=")
      list(APPEND env_args "${token}")
    else()
      list(APPEND variant_args "${token}")
    endif()
  endforeach()
  execute_process(
    COMMAND ${CMAKE_COMMAND} -E env ${env_args}
            ${BINARY} ${variant_args} ${EXTRA_ARGS}
    OUTPUT_FILE ${OUT}_${index}.txt
    RESULT_VARIABLE rc)
  if(NOT rc EQUAL 0)
    message(FATAL_ERROR "${BINARY} ${variant} failed (rc=${rc})")
  endif()
  if(index GREATER 0)
    execute_process(
      COMMAND ${CMAKE_COMMAND} -E compare_files
              ${OUT}_0.txt ${OUT}_${index}.txt
      RESULT_VARIABLE diff_rc)
    if(NOT diff_rc EQUAL 0)
      message(FATAL_ERROR
              "${BINARY}: output of '${variant}' differs from the first "
              "variant (${OUT}_0.txt vs ${OUT}_${index}.txt)")
    endif()
  endif()
  math(EXPR index "${index} + 1")
endforeach()
