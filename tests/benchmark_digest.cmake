# benchmark_digest_pinned: a fixed-reference byte gate. Runs one smoke pass
# of each simulating benchmark workload at seed 1 and compares the output
# digest (a 64-bit FNV-1a over every session's results) with the value
# committed below. A change that moves any result byte of these sessions
# fails here, not only when compared by hand against its parent.
#
# The pinned values hold for g++ 12 with glibc on x86-64, in both the
# Release and the default RelWithDebInfo builds (libm and the compiler's
# floating-point contraction decide the last bits). Update rule: DESIGN.md,
# "Pinned benchmark digests", beside the blob and fingerprint rule.
#
#   cmake -DDRIVER=... -DOUT=dir -P benchmark_digest.cmake

# Compare what this build computes: a result-cache directory or a coalescing
# switch inherited from the calling shell must not decide the bytes (a warm
# RAVE_CACHE_DIR serves results from whatever build filled it).
unset(ENV{RAVE_CACHE_DIR})
unset(ENV{RAVE_CACHE_MAX_MB})
unset(ENV{RAVE_NO_COALESCE})

set(pins
    "high-rate=3718e4fedc7f3a04"
    "lossy-low-rate=77b10dae21c9e866")

foreach(pin ${pins})
  string(REPLACE "=" ";" pin "${pin}")
  list(GET pin 0 workload)
  list(GET pin 1 expected)
  execute_process(
    COMMAND "${DRIVER}" --smoke --seconds=1 --trace=0 --seed=1
            --workload=${workload} --work-dir=${OUT}/work
            --out-dir=${OUT}/results
    OUTPUT_VARIABLE out
    ERROR_VARIABLE err
    RESULT_VARIABLE rc)
  if(NOT rc EQUAL 0)
    message(FATAL_ERROR "${workload}: driver exited with ${rc}:\n${out}${err}")
  endif()
  if(NOT out MATCHES "(^|\n)${workload} digest ([0-9a-f]+) -\n")
    message(FATAL_ERROR "${workload}: no digest line in the output:\n${out}")
  endif()
  set(actual "${CMAKE_MATCH_2}")
  if(NOT actual STREQUAL expected)
    message(FATAL_ERROR
            "${workload}: digest ${actual}, pinned ${expected}: the "
            "workload's result bytes changed")
  endif()
  message(STATUS "${workload}: digest ${actual} matches the pin")
endforeach()
