# Opt-in performance gate over tab4_microbench's serial throughput.
#
# Runs the throughput section (smoke mode: google-benchmark skipped, full
# 64-session x 30 s matrix kept) and fails if:
#   - tab4 exits non-zero (it does when the parallel results are not
#     bit-identical to the serial ones), or
#   - serial_sessions_per_s falls below SERIAL_FLOOR (absolute sessions/sec,
#     a catastrophic tripwire only — the host swings ~1.5x run to run), or
#   - train_amortization falls below AMORT_FLOOR. This one is noise-free:
#     it is logical events / dispatched events, a pure count ratio fixed by
#     the deterministic simulation (1.0298 for the committed matrix), and it
#     reads exactly 1.0 the moment the event-coalescing fast path stops
#     granting time steps — no wall clock involved.
#
# Single-run wall clock on shared/virtualized hosts is noisy, so the gate
# takes the BEST serial sessions/s over up to ATTEMPTS runs — host noise
# only depresses a measured rate at random, so the max across runs tracks
# the true rate. Raise the floor only from repeated cold-run minima on a
# quiet host.
#
# Usage: cmake -DBINARY=<tab4_microbench> -DOUT=<dir>
#              [-DSERIAL_FLOOR=<sessions/s>] [-DAMORT_FLOOR=<ratio>] -P this
if(NOT DEFINED BINARY OR NOT DEFINED OUT)
  message(FATAL_ERROR "BINARY and OUT must be defined")
endif()
if(NOT DEFINED SERIAL_FLOOR)
  set(SERIAL_FLOOR 0)
endif()
if(NOT DEFINED AMORT_FLOOR)
  set(AMORT_FLOOR 0)
endif()
if(NOT DEFINED ATTEMPTS)
  set(ATTEMPTS 3)
endif()

file(MAKE_DIRECTORY ${OUT})
set(best_serial 0)
foreach(attempt RANGE 1 ${ATTEMPTS})
  execute_process(
    COMMAND ${BINARY} --smoke --runner-sessions=64 --runner-duration=30
            --jobs=2 --json=${OUT}/perf.json --hotpath-json=-
    RESULT_VARIABLE rc
    OUTPUT_VARIABLE stdout
    ERROR_VARIABLE stderr)
  if(NOT rc EQUAL 0)
    message(FATAL_ERROR
            "tab4_microbench failed (rc=${rc}):\n${stdout}\n${stderr}")
  endif()

  file(READ ${OUT}/perf.json json)
  string(JSON serial_sps GET ${json} serial_sessions_per_s)
  string(JSON amortization GET ${json} train_amortization)

  # The amortization ratio is deterministic, so a single miss is a real
  # regression, not noise.
  if(amortization LESS AMORT_FLOOR)
    message(FATAL_ERROR
            "train_amortization=${amortization} fell below ${AMORT_FLOOR}: "
            "the event-coalescing fast path stopped granting time steps "
            "(it reads exactly 1.0 when coalescing is lost)")
  endif()

  if(best_serial LESS serial_sps)
    set(best_serial ${serial_sps})
  endif()
  if(NOT best_serial LESS SERIAL_FLOOR)
    break()  # above the floor — no need to burn more attempts
  endif()
  message(STATUS
          "attempt ${attempt}/${ATTEMPTS}: serial_sessions_per_s="
          "${serial_sps} (floor ${SERIAL_FLOOR}), retrying")
endforeach()

if(best_serial LESS SERIAL_FLOOR)
  message(FATAL_ERROR
          "best serial_sessions_per_s over ${ATTEMPTS} runs = ${best_serial} "
          "fell below the committed floor ${SERIAL_FLOOR}; the serial "
          "session fast path (event coalescing / timing wheel) regressed "
          "catastrophically")
endif()
message(STATUS
        "perf gate passed: serial_sessions_per_s=${best_serial} "
        "(floor ${SERIAL_FLOOR}, best of <=${ATTEMPTS}), "
        "train_amortization=${amortization} (floor ${AMORT_FLOOR})")
