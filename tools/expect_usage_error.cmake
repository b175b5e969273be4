# Runs PROGRAM with ARGS ('|'-separated) and fails unless it is rejected as
# a usage error: exit status exactly 2 and nothing on stdout (no run began).
#
#   cmake -DPROGRAM=uvmsim_cli -DARGS="run|--bogus-flag|1" \
#         -P expect_usage_error.cmake
string(REPLACE "|" ";" args "${ARGS}")
execute_process(COMMAND "${PROGRAM}" ${args}
  RESULT_VARIABLE rc OUTPUT_VARIABLE out ERROR_VARIABLE err)
if(NOT rc STREQUAL "2")
  message(FATAL_ERROR "'${ARGS}': expected exit 2, got '${rc}'\n${err}")
endif()
if(NOT out STREQUAL "")
  message(FATAL_ERROR "'${ARGS}': exited 2 but printed a run:\n${out}")
endif()
message(STATUS "'${ARGS}' rejected: ${err}")
