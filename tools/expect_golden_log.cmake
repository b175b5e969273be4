# Runs `PROGRAM run ARGS --log NAME.batchlog` ('|'-separated ARGS) in the
# working directory, then `analyze` on the log as text, --json and
# --phases, and fails unless each of the four files equals its fixture
# GOLDEN.batchlog, GOLDEN.analyze.txt, GOLDEN.analyze.json and
# GOLDEN.phases.txt byte for byte.
#
#   cmake -DPROGRAM=uvmsim_cli -DARGS="--workload|random|..." -DNAME=out \
#         -DGOLDEN=tests/golden/random_recovery_counters_gpu8 \
#         -P expect_golden_log.cmake
#
# After an intended change, regenerate the fixtures with the same run and
# the three analyze calls, writing straight into tests/golden/.
string(REPLACE "|" ";" args "${ARGS}")
execute_process(COMMAND "${PROGRAM}" run ${args} --log "${NAME}.batchlog"
  RESULT_VARIABLE rc OUTPUT_QUIET ERROR_VARIABLE err)
if(NOT rc STREQUAL "0")
  message(FATAL_ERROR "'run ${ARGS}': expected exit 0, got '${rc}'\n${err}")
endif()
function(analyze suffix)
  execute_process(COMMAND "${PROGRAM}" analyze "${NAME}.batchlog" ${ARGN}
    RESULT_VARIABLE rc OUTPUT_FILE "${NAME}.${suffix}" ERROR_VARIABLE err)
  if(NOT rc STREQUAL "0")
    message(FATAL_ERROR "'analyze ${ARGN}': expected exit 0, got '${rc}'\n"
                        "${err}")
  endif()
endfunction()
analyze(analyze.txt)
analyze(analyze.json --json)
analyze(phases.txt --phases)
foreach(suffix batchlog analyze.txt analyze.json phases.txt)
  execute_process(COMMAND ${CMAKE_COMMAND} -E compare_files
    "${NAME}.${suffix}" "${GOLDEN}.${suffix}" RESULT_VARIABLE differs)
  if(differs)
    message(FATAL_ERROR "${NAME}.${suffix} differs from ${GOLDEN}.${suffix}")
  endif()
endforeach()
message(STATUS "'run ${ARGS}' matches ${GOLDEN}.*")
