# Runs dlpsim_bench once per malformed numeric flag value and requires
# each run to exit 2 with a message that names the flag. A run that
# parsed the value would write its report to OUT, so the test fails
# without touching the caller's BENCH_<n>.json files.
#
#   cmake -DBENCH=<dlpsim_bench> -DOUT=<scratch file> -P dlpsim_bench_flags.cmake
set(flags
  --repeat --repeat --repeat
  --bench-id --bench-id
  --scale --scale --scale --scale --scale --scale
  --max-regress --max-regress --max-regress)
set(values
  x -1 1.5
  abc -3
  -1 0 nan inf 0.1x 1e12
  5% -5 " 5")
list(LENGTH flags n)
math(EXPR last "${n} - 1")
foreach(i RANGE ${last})
  list(GET flags ${i} flag)
  list(GET values ${i} value)
  execute_process(
    COMMAND "${BENCH}" ${flag} "${value}" --out "${OUT}"
    RESULT_VARIABLE rc
    OUTPUT_QUIET
    ERROR_VARIABLE err)
  if(NOT rc EQUAL 2)
    message(FATAL_ERROR "${flag} '${value}': exit ${rc}, want 2\n${err}")
  endif()
  string(FIND "${err}" "${flag}" at)
  if(at EQUAL -1)
    message(FATAL_ERROR "${flag} '${value}': message does not name the flag:\n${err}")
  endif()
endforeach()
message(STATUS "${n} malformed values rejected with exit 2")
