# Runs EXAMPLE once per bad positional scale, or BENCH once per bad
# DLPSIM_SCALE, and requires each run to exit 2 with a message that
# rejects the value. An example that parsed the value would go on to
# simulate, or crash inside MakeWorkload; a bench must stop before its
# grid starts, so no cell may fail with a [grid] line.
#
#   cmake -DEXAMPLE=<quickstart, ...> -P example_scale.cmake
#   cmake -DBENCH=<bench_fig06_memratio, ...> -P example_scale.cmake
set(values nan inf -1 0 0.05abc 0x1p-3 1e999 1e12 " 0.5")
foreach(value IN LISTS values)
  if(DEFINED BENCH)
    set(command "${CMAKE_COMMAND}" -E env "DLPSIM_SCALE=${value}"
        DLPSIM_NOCACHE=1 "${BENCH}")
  else()
    set(command "${EXAMPLE}" HS "${value}")
  endif()
  execute_process(
    COMMAND ${command}
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
  string(FIND "${err}" "[grid]" at)
  if(NOT at EQUAL -1)
    message(FATAL_ERROR "scale '${value}': a grid cell started:\n${err}")
  endif()
endforeach()
list(LENGTH values n)
message(STATUS "${n} bad scales rejected with exit 2")
