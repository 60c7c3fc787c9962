# Runs EXAMPLE once per bad argument list and requires each run to exit 2
# with its usage line. ARGS holds the lists, separated by '|', each list's
# arguments by ','. An example that read a count with atoi would throw on
# "abc", or go on to simulate with 0 warps or 0 probe PCs.
#
#   cmake -DEXAMPLE=<custom_workload, ...> "-DARGS=abc|0|8,0" -P example_args.cmake
string(REPLACE "|" ";" cases "${ARGS}")
foreach(case IN LISTS cases)
  string(REPLACE "," ";" argv "${case}")
  execute_process(
    COMMAND "${EXAMPLE}" ${argv}
    RESULT_VARIABLE rc
    OUTPUT_QUIET
    ERROR_VARIABLE err
    TIMEOUT 30)
  if(NOT rc EQUAL 2)
    message(FATAL_ERROR "arguments '${case}': exit ${rc}, want 2\n${err}")
  endif()
  string(FIND "${err}" "usage:" at)
  if(at EQUAL -1)
    message(FATAL_ERROR "arguments '${case}': no usage line:\n${err}")
  endif()
endforeach()
list(LENGTH cases n)
message(STATUS "${n} bad argument lists rejected with exit 2")
