# Runs EXAMPLE once per bad positional scale and requires each run to
# exit 2 with a message that rejects the value. An example that parsed
# the value would go on to simulate, or crash inside MakeWorkload.
#
#   cmake -DEXAMPLE=<quickstart, ...> -P example_scale.cmake
set(values nan inf -1 0 0.05abc 0x1p-3 1e999 1e12 " 0.5")
foreach(value IN LISTS values)
  execute_process(
    COMMAND "${EXAMPLE}" HS "${value}"
    RESULT_VARIABLE rc
    OUTPUT_QUIET
    ERROR_VARIABLE err)
  if(NOT rc EQUAL 2)
    message(FATAL_ERROR "scale '${value}': exit ${rc}, want 2\n${err}")
  endif()
  string(FIND "${err}" "bad scale" at)
  if(at EQUAL -1)
    message(FATAL_ERROR "scale '${value}': the message does not reject the value:\n${err}")
  endif()
endforeach()
list(LENGTH values n)
message(STATUS "${n} bad scales rejected with exit 2")
