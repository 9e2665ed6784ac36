# Smoke test driven by ctest (see tools/CMakeLists.txt): numeric arguments
# that are not whole positive integers must be refused before any work, with
# exit code 2 and an error naming the argument and the value given.
#
# Variables (passed via -D): SWEEP, PREDICT.

function(expect_refused expected)
  execute_process(
    COMMAND ${ARGN}
    RESULT_VARIABLE result
    OUTPUT_VARIABLE output
    ERROR_VARIABLE error
  )
  if(NOT result EQUAL 2)
    message(FATAL_ERROR "'${ARGN}' exited ${result}, expected 2:\n${output}\n${error}")
  endif()
  string(FIND "${error}" "${expected}" at)
  if(at EQUAL -1)
    message(FATAL_ERROR "'${ARGN}' did not report \"${expected}\":\n${error}")
  endif()
endfunction()

expect_refused("error: sample-count needs a positive integer, got 'abc'" ${SWEEP} x3-2 MD abc)
expect_refused("error: sample-count needs a positive integer, got '0'" ${SWEEP} x3-2 MD 0)
expect_refused("error: sample-count needs a positive integer, got '5x'" ${SWEEP} x3-2 MD 5x)
expect_refused("error: --jobs needs a positive integer, got '2x'" ${SWEEP} --jobs=2x x3-2 MD 5)
expect_refused("error: --jobs needs a positive integer, got '2x'" ${PREDICT} --jobs=2x x3-2 MD)
