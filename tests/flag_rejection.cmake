# Fail-closed flag gate: runs a binary once per argument variant and passes
# only if every run is rejected up front — exit status 2, nothing on stdout
# (no partial tables), and a stderr message that matches EXPECT and names
# the offending flag. Invoked by ctest (see bench/CMakeLists.txt):
#
#   cmake -DBINARY=<path> "-DVARIANTS=--batch=16|--simd=scalar"
#         "-DEXPECT=error: unknown flag" [-DEXTRA_ARGS=...]
#         -P flag_rejection.cmake
#
# Variants are separated by "|"; arguments within one variant by spaces.
# The flag each variant must name is its first token up to the "=".
if(NOT DEFINED BINARY OR NOT DEFINED VARIANTS OR NOT DEFINED EXPECT)
  message(FATAL_ERROR
          "flag_rejection.cmake needs -DBINARY, -DVARIANTS, -DEXPECT")
endif()

string(REPLACE "|" ";" variant_list "${VARIANTS}")
foreach(variant IN LISTS variant_list)
  separate_arguments(variant_args UNIX_COMMAND "${variant}")
  list(GET variant_args 0 first)
  string(REGEX REPLACE "=.*" "" flag "${first}")
  execute_process(
    COMMAND ${BINARY} ${variant_args} ${EXTRA_ARGS}
    RESULT_VARIABLE rc
    OUTPUT_VARIABLE out
    ERROR_VARIABLE err)
  if(NOT rc EQUAL 2)
    message(FATAL_ERROR "'${variant}' exited ${rc}, want 2\nstderr: ${err}")
  endif()
  if(NOT out STREQUAL "")
    message(FATAL_ERROR "'${variant}' printed output before failing:\n${out}")
  endif()
  if(NOT err MATCHES "${EXPECT}")
    message(FATAL_ERROR
            "'${variant}' stderr does not match '${EXPECT}':\n${err}")
  endif()
  string(FIND "${err}" "${flag}" at)
  if(at EQUAL -1)
    message(FATAL_ERROR "'${variant}' error does not name ${flag}:\n${err}")
  endif()
endforeach()
