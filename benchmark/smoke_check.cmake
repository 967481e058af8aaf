# benchmark_smoke: runs every workload of BENCHMARK.json once untraced and
# once traced in --smoke mode, and checks that each run prints every metric
# the file names, with its unit and a numeric value, and that no operation
# failed.
#
#   cmake -DDRIVER=... -DSPEC=.../BENCHMARK.json -DOUT=dir -P smoke_check.cmake
file(READ "${SPEC}" spec)
string(JSON workload_count LENGTH "${spec}" workloads)
math(EXPR last_workload "${workload_count} - 1")

foreach(trace 0 1)
  if(trace EQUAL 0)
    set(list_key end_to_end)
  else()
    set(list_key per_layer)
  endif()
  string(JSON metric_count LENGTH "${spec}" ${list_key})
  math(EXPR last_metric "${metric_count} - 1")

  foreach(w RANGE ${last_workload})
    string(JSON workload GET "${spec}" workloads ${w} name)
    execute_process(
      COMMAND "${DRIVER}" --workload=${workload} --seed=1 --seconds=1
              --trace=${trace} --smoke --work-dir=${OUT}/work
              --out-dir=${OUT}/results
      OUTPUT_VARIABLE out
      RESULT_VARIABLE rc)
    if(NOT rc EQUAL 0)
      message(FATAL_ERROR "${workload} --trace=${trace} exited with ${rc}:\n${out}")
    endif()
    set(out "\n${out}")

    foreach(i RANGE ${last_metric})
      string(JSON name GET "${spec}" ${list_key} ${i} name)
      string(JSON unit GET "${spec}" ${list_key} ${i} unit)
      string(REPLACE "." "\\." name_re "${name}")
      string(REPLACE "." "\\." unit_re "${unit}")
      if(NOT out MATCHES "\n${workload} ${name_re} -?[0-9][^ \n]* ${unit_re}\n")
        message(FATAL_ERROR
                "${workload} --trace=${trace}: no numeric line for ${name} "
                "in ${unit}:\n${out}")
      endif()
    endforeach()

    if(NOT out MATCHES "\n${workload} error_rate 0 ratio\n")
      message(FATAL_ERROR "${workload} --trace=${trace}: error_rate is not 0")
    endif()
    if(NOT out MATCHES "\n{\"correct\": true, \"attempted\": [1-9][0-9]*, \"failed\": 0, \"metrics\": [^\n]*\n$")
      message(FATAL_ERROR "${workload} --trace=${trace}: bad result line")
    endif()
    message(STATUS "${workload} --trace=${trace}: ${metric_count} metrics ok")
  endforeach()
endforeach()
