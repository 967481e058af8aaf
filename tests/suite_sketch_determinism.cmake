# Sketch determinism gate: the "sketches" section of BENCH_suite.json —
# bit-exact count/sum/min/max, the percentile ladder, AND the encoded
# sketch blob as hex — must be byte-identical across cache temperature
# and job counts. All variants share one cache directory:
# variant 1 runs cold (simulate + store), the rest run warm (served from
# disk), so this also proves cached snapshots round-trip the sketches
# bit-exactly through the blob codec.
#
#   cmake -DBINARY=<run_suite> -DOUT=<scratch-dir>
#         -P suite_sketch_determinism.cmake

# Compare what this build computes: a result-cache directory or a coalescing
# switch inherited from the calling shell must not decide the bytes (a warm
# RAVE_CACHE_DIR serves results from whatever build filled it).
unset(ENV{RAVE_CACHE_DIR})
unset(ENV{RAVE_CACHE_MAX_MB})
unset(ENV{RAVE_NO_COALESCE})

if(NOT DEFINED BINARY OR NOT DEFINED OUT)
  message(FATAL_ERROR "suite_sketch_determinism.cmake needs -DBINARY/-DOUT")
endif()

file(REMOVE_RECURSE ${OUT})
file(MAKE_DIRECTORY ${OUT}/cache)

# Bench selection: one latency-heavy CDF bench, one fault-matrix bench, and
# the wireless tier — together they merge sketches from every session class.
set(ONLY "fig2_latency_cdf,fig10_outage_recovery,fig12_handover_recovery")

# Variant args are space-separated (a ';' would split the outer list).
set(variants
  "cold_j1|--jobs=1"
  "warm_j8|--jobs=8"
  "warm_j2|--jobs=2")

set(names "")
foreach(variant IN LISTS variants)
  string(REPLACE "|" ";" parts "${variant}")
  list(GET parts 0 name)
  list(GET parts 1 args)
  separate_arguments(args)
  list(APPEND names ${name})
  file(MAKE_DIRECTORY ${OUT}/${name})
  execute_process(
    COMMAND ${BINARY} --cache-dir=${OUT}/cache --out-dir=${OUT}/${name}
            --only=${ONLY} --duration=12 ${args}
    OUTPUT_QUIET
    RESULT_VARIABLE rc)
  if(NOT rc EQUAL 0)
    message(FATAL_ERROR "${BINARY} (${name}) failed (rc=${rc})")
  endif()

  # Extract exactly the "sketches" section: from its opening bracket up to
  # the closing ']' (sketch entries are single-line objects with no ']'
  # inside, so [^]]* spans the whole section). Deliberately NOT split into a
  # CMake list first: list parsing keeps semicolon-free bracketed runs
  # together, which would glue the section into one element.
  file(READ ${OUT}/${name}/BENCH_suite.json json)
  string(REGEX MATCH "\"sketches\": \\[[^]]*" section "${json}")
  if(section STREQUAL "")
    message(FATAL_ERROR "${name}/BENCH_suite.json holds no \"sketches\" section")
  endif()
  file(WRITE ${OUT}/${name}/sketches_section.txt "${section}")
endforeach()

# Byte-compare every variant against the cold reference.
list(GET names 0 reference)
foreach(name IN LISTS names)
  if(name STREQUAL reference)
    continue()
  endif()
  execute_process(
    COMMAND ${CMAKE_COMMAND} -E compare_files
            ${OUT}/${reference}/sketches_section.txt
            ${OUT}/${name}/sketches_section.txt
    RESULT_VARIABLE diff_rc)
  if(NOT diff_rc EQUAL 0)
    message(FATAL_ERROR
            "\"sketches\" section differs between ${reference} and ${name} "
            "(${OUT}/${reference}/sketches_section.txt vs "
            "${OUT}/${name}/sketches_section.txt) — sketch merge is not "
            "order/jobs/cache independent")
  endif()
endforeach()

# Sanity: the section must actually hold sketches with encoded blobs, or
# the comparison proves nothing.
file(READ ${OUT}/${reference}/sketches_section.txt ref_section)
if(NOT ref_section MATCHES "frame.latency_ms")
  message(FATAL_ERROR "sketches section lost frame.latency_ms")
endif()
if(NOT ref_section MATCHES "\"blob\": \"[0-9a-f]+\"")
  message(FATAL_ERROR "sketches section holds no encoded sketch blobs")
endif()
