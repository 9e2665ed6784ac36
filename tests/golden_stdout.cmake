# Golden-output test driven by ctest (see tests/CMakeLists.txt): run one
# binary with no arguments and require its stdout to equal a committed file
# byte for byte. On a mismatch the actual output stays at ACTUAL for diffing.
#
# Variables (passed via -D): BIN, GOLDEN, ACTUAL.

execute_process(
  COMMAND ${BIN}
  RESULT_VARIABLE result
  OUTPUT_FILE ${ACTUAL}
  ERROR_VARIABLE stderr
)
if(NOT result EQUAL 0)
  message(FATAL_ERROR "${BIN} failed (${result}):\n${stderr}")
endif()
execute_process(
  COMMAND ${CMAKE_COMMAND} -E compare_files ${GOLDEN} ${ACTUAL}
  RESULT_VARIABLE differs
)
if(NOT differs EQUAL 0)
  file(READ ${ACTUAL} actual)
  message(FATAL_ERROR "stdout of ${BIN} differs from ${GOLDEN}; actual written to "
                      "${ACTUAL}:\n${actual}")
endif()
