# Runs TOOL once per malformed or out-of-range --scale value (1e12 is
# past kMaxScale) and requires each run to exit 2 with a message that
# rejects the flag's value. A tool that parsed
# the value would go on to fail for another reason or to do real work.
#
#   cmake -DTOOL=<dlpsim_client or trace_pack> -P scale_flag.cmake
set(values nan inf -1 0 0.05abc 0x1p-3 1e999 1e12 " 0.5")
foreach(value IN LISTS values)
  execute_process(
    COMMAND "${TOOL}" --scale "${value}"
    RESULT_VARIABLE rc
    OUTPUT_QUIET
    ERROR_VARIABLE err)
  if(NOT rc EQUAL 2)
    message(FATAL_ERROR "--scale '${value}': exit ${rc}, want 2\n${err}")
  endif()
  string(FIND "${err}" "--scale: bad value" at)
  if(at EQUAL -1)
    message(FATAL_ERROR "--scale '${value}': the message does not reject the value:\n${err}")
  endif()
endforeach()
list(LENGTH values n)
message(STATUS "${n} malformed --scale values rejected with exit 2")
