# Runs PROGRAM with ARGS ('|'-separated) and fails unless it exits 0 and
# writes FILE containing every string in CONTAINS ('|'-separated) and, when
# GOLDEN names a fixture, equal to it byte for byte.
#
#   cmake -DPROGRAM=uvmsim_cli -DARGS="run|--tenants|2|--metrics|m.json" \
#         -DFILE=m.json -DCONTAINS="gpu.warp_visits" \
#         [-DGOLDEN=tests/golden/tenants2_gpu4.metrics.json] \
#         -P expect_output_file.cmake
#
# After an intended change, regenerate a fixture with the same run, writing
# FILE straight into tests/golden/.
string(REPLACE "|" ";" args "${ARGS}")
string(REPLACE "|" ";" needles "${CONTAINS}")
file(REMOVE "${FILE}")
execute_process(COMMAND "${PROGRAM}" ${args}
  RESULT_VARIABLE rc OUTPUT_VARIABLE out ERROR_VARIABLE err)
if(NOT rc STREQUAL "0")
  message(FATAL_ERROR "'${ARGS}': expected exit 0, got '${rc}'\n${err}")
endif()
if(NOT EXISTS "${FILE}")
  message(FATAL_ERROR "'${ARGS}': exited 0 but wrote no ${FILE}\n${out}")
endif()
file(READ "${FILE}" content)
foreach(needle IN LISTS needles)
  string(FIND "${content}" "${needle}" at)
  if(at EQUAL -1)
    message(FATAL_ERROR "'${ARGS}': ${FILE} lacks '${needle}'")
  endif()
endforeach()
if(GOLDEN)
  execute_process(COMMAND ${CMAKE_COMMAND} -E compare_files
    "${FILE}" "${GOLDEN}" RESULT_VARIABLE differs)
  if(differs)
    message(FATAL_ERROR "'${ARGS}': ${FILE} differs from ${GOLDEN}")
  endif()
endif()
message(STATUS "'${ARGS}' wrote ${FILE} with: ${CONTAINS}")
