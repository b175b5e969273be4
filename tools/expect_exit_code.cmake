# Runs PROGRAM with ARGS ('|'-separated) and fails unless it exits with
# status EXIT and its stdout contains every string in CONTAINS
# ('|'-separated, optional).
#
#   cmake -DPROGRAM=uvmsim_cli -DARGS="run|--gpus|2|--fail-on-abort" \
#         -DEXIT=4 -DCONTAINS="robustness:" -P expect_exit_code.cmake
string(REPLACE "|" ";" args "${ARGS}")
string(REPLACE "|" ";" needles "${CONTAINS}")
execute_process(COMMAND "${PROGRAM}" ${args}
  RESULT_VARIABLE rc OUTPUT_VARIABLE out ERROR_VARIABLE err)
if(NOT rc STREQUAL "${EXIT}")
  message(FATAL_ERROR "'${ARGS}': expected exit ${EXIT}, got '${rc}'\n"
                      "${out}${err}")
endif()
foreach(needle IN LISTS needles)
  string(FIND "${out}" "${needle}" at)
  if(at EQUAL -1)
    message(FATAL_ERROR "'${ARGS}': stdout lacks '${needle}'\n${out}")
  endif()
endforeach()
message(STATUS "'${ARGS}' exited ${EXIT}")
