# Suite golden gate: a fixed-reference byte check of every result the suite
# prints. Runs `run_suite` once at its default durations and compares, byte
# for byte, each harness capture BENCH_<name>.out with tests/golden/<name>.out,
# and the "metrics" and "sketches" sections of BENCH_suite.json (from the
# `"metrics": [` line up to, not including, the `"runtime"` line) with
# tests/golden/suite_sections.txt. Every mismatching file is named with its
# first differing line number and both versions of that line; a harness
# without a golden, or a golden without a harness, fails too.
#
# The goldens hold for g++ 12 with glibc on x86-64, in both the Release and
# the default RelWithDebInfo builds, at any --jobs (libm and the compiler's
# floating-point contraction decide the last printed digits). Update rule:
# DESIGN.md, "Pinned suite outputs". To regenerate after a change that moves
# results on purpose, run this test once (it leaves its run in OUT), then
# copy from there:
#
#   ctest --test-dir build -R '^suite_golden$'
#   out=build/bench/suite_golden
#   for f in "$out"/BENCH_*.out; do
#     n="${f##*/BENCH_}"; cp "$f" "tests/golden/$n"
#   done
#   cp "$out/suite_sections.txt" tests/golden/
#
# Pitfalls this script avoids, and a change to it must keep avoiding:
#   * Outputs contain ';' (fig10, tab3) and '[' ... ']' (tab1, tab2, fig12).
#     A CMake list splits on ';' and does not split inside brackets, so the
#     first differing line is found with string(FIND)/SUBSTRING over newline
#     offsets, never by turning a file into a list.
#   * .gitignore ignores BENCH_*.out and BENCH_suite.json everywhere, so the
#     goldens are named without that prefix.
#   * run_suite also drops fig11's trace JSON (and any CSVs a harness
#     writes) into its out-dir; only BENCH_*.out files are compared, and no
#     such file belongs in tests/golden/.
#   * Paths come in as arguments (bench/CMakeLists.txt passes them relative
#     to its own directories), so the gate registers the same way when the
#     tree is configured on its own or through add_subdirectory(..).
#
#   cmake -DBINARY=<run_suite> -DGOLDEN=<tests/golden> -DOUT=<scratch-dir>
#         -P suite_golden.cmake
cmake_minimum_required(VERSION 3.16)

# Compare what this build computes: a result-cache directory or a coalescing
# switch inherited from the calling shell must not decide the bytes (a warm
# RAVE_CACHE_DIR serves results from whatever build filled it).
unset(ENV{RAVE_CACHE_DIR})
unset(ENV{RAVE_CACHE_MAX_MB})
unset(ENV{RAVE_NO_COALESCE})

if(NOT DEFINED BINARY OR NOT DEFINED GOLDEN OR NOT DEFINED OUT)
  message(FATAL_ERROR "suite_golden.cmake needs -DBINARY/-DGOLDEN/-DOUT")
endif()

file(REMOVE_RECURSE ${OUT})
file(MAKE_DIRECTORY ${OUT})
execute_process(
  COMMAND ${BINARY} --jobs=2 --out-dir=${OUT}
  OUTPUT_QUIET
  ERROR_VARIABLE err
  RESULT_VARIABLE rc)
if(NOT rc EQUAL 0)
  message(FATAL_ERROR "${BINARY} exited with ${rc}:\n${err}")
endif()

# The pinned BENCH_suite.json sections, cut at line starts.
file(READ ${OUT}/BENCH_suite.json json)
string(FIND "${json}" "\n  \"metrics\": [" begin)
string(FIND "${json}" "\n  \"runtime\": {" end)
if(begin EQUAL -1 OR end LESS begin)
  message(FATAL_ERROR "BENCH_suite.json has no \"metrics\" ... \"runtime\" "
                      "span to compare")
endif()
math(EXPR begin "${begin} + 1")
math(EXPR length "${end} + 1 - ${begin}")
string(SUBSTRING "${json}" ${begin} ${length} sections)
file(WRITE ${OUT}/suite_sections.txt "${sections}")

# Prints the first line at which `actual` and `golden` differ. Each line is
# compared with its newline, so a missing final newline counts as a
# difference too.
function(report_first_difference name actual golden)
  file(READ ${actual} a)
  file(READ ${golden} b)
  set(line 1)
  while(NOT (a STREQUAL "" AND b STREQUAL ""))
    foreach(side a b)
      string(FIND "${${side}}" "\n" nl)
      if(nl EQUAL -1)
        set(${side}_line "${${side}}")
        set(${side}_rest "")
      else()
        math(EXPR nl "${nl} + 1")
        string(SUBSTRING "${${side}}" 0 ${nl} ${side}_line)
        string(SUBSTRING "${${side}}" ${nl} -1 ${side}_rest)
      endif()
    endforeach()
    if(NOT a_line STREQUAL b_line)
      foreach(side a b)
        if(${side}_line STREQUAL "")
          set(${side}_line "<end of file>")
        elseif(${side}_line MATCHES "\n$")
          string(LENGTH "${${side}_line}" n)
          math(EXPR n "${n} - 1")
          string(SUBSTRING "${${side}_line}" 0 ${n} ${side}_line)
        else()
          string(APPEND ${side}_line "<no newline at end of file>")
        endif()
      endforeach()
      message(SEND_ERROR "${name}: first difference at line ${line}\n"
                         "  golden: ${b_line}\n  actual: ${a_line}")
      return()
    endif()
    set(a "${a_rest}")
    set(b "${b_rest}")
    math(EXPR line "${line} + 1")
  endwhile()
  message(SEND_ERROR "${name}: bytes differ but no line does")
endfunction()

function(compare_file name actual golden)
  if(NOT EXISTS ${golden})
    message(SEND_ERROR "${name}: no golden at ${golden}")
  elseif(NOT EXISTS ${actual})
    message(SEND_ERROR "${name}: run_suite wrote no ${actual}")
  else()
    file(SHA256 ${actual} actual_hash)
    file(SHA256 ${golden} golden_hash)
    if(actual_hash STREQUAL golden_hash)
      return()
    endif()
    report_first_difference(${name} ${actual} ${golden})
  endif()
  set(failed ${failed} ${name} PARENT_SCOPE)
endfunction()

file(GLOB outputs RELATIVE ${OUT} ${OUT}/BENCH_*.out)
file(GLOB goldens RELATIVE ${GOLDEN} ${GOLDEN}/*.out)
set(names "")
foreach(f IN LISTS outputs)
  string(REGEX REPLACE "^BENCH_" "" n "${f}")
  list(APPEND names ${n})
endforeach()
list(APPEND names ${goldens})
list(REMOVE_DUPLICATES names)
list(SORT names)
set(failed "")
foreach(n IN LISTS names)
  compare_file(${n} ${OUT}/BENCH_${n} ${GOLDEN}/${n})
endforeach()
compare_file(suite_sections.txt ${OUT}/suite_sections.txt
             ${GOLDEN}/suite_sections.txt)

list(LENGTH names count)
if(failed)
  list(JOIN failed ", " failed)
  message(FATAL_ERROR "differs from ${GOLDEN}: ${failed}")
endif()
message(STATUS "${count} harness outputs and suite_sections.txt match")
