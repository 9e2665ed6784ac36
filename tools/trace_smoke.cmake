# Smoke test driven by ctest (see tools/CMakeLists.txt): run pandia_predict
# on the simulated x3-2 machine with tracing and metrics enabled, then
# validate the emitted Chrome trace JSON with pandia_trace_check, requiring
# the nested predict/optimizer spans the acceptance criteria name.
#
# Variables (passed via -D): PREDICT, CHECK, OUT.

execute_process(
  COMMAND ${PREDICT} --trace-out=${OUT} --metrics x3-2 MD
  RESULT_VARIABLE predict_result
  OUTPUT_VARIABLE predict_output
  ERROR_VARIABLE predict_stderr
)
if(NOT predict_result EQUAL 0)
  message(FATAL_ERROR "pandia_predict failed (${predict_result}):\n${predict_output}\n${predict_stderr}")
endif()
if(NOT predict_output MATCHES "predictor\\.iterations")
  message(FATAL_ERROR "pandia_predict --metrics did not print predictor.iterations:\n${predict_output}")
endif()
if(NOT predict_output MATCHES "optimizer\\.placements_evaluated")
  message(FATAL_ERROR "pandia_predict --metrics did not print optimizer.placements_evaluated:\n${predict_output}")
endif()
if(NOT predict_output MATCHES "optimizer\\.placements_pruned")
  message(FATAL_ERROR "pandia_predict --metrics did not print optimizer.placements_pruned:\n${predict_output}")
endif()

execute_process(
  COMMAND ${CHECK} ${OUT} predict predict.iteration optimizer.rank pipeline.profile
  RESULT_VARIABLE check_result
  OUTPUT_VARIABLE check_output
  ERROR_VARIABLE check_stderr
)
if(NOT check_result EQUAL 0)
  message(FATAL_ERROR "pandia_trace_check failed (${check_result}):\n${check_output}\n${check_stderr}")
endif()

# Second pass with the parallel search enabled: per-thread tracer buffers
# must still yield a structurally valid merged trace, and the chosen
# placement must match the serial run above.
execute_process(
  COMMAND ${PREDICT} --jobs=2 --trace-out=${OUT}.jobs2 --metrics x3-2 MD
  RESULT_VARIABLE parallel_result
  OUTPUT_VARIABLE parallel_output
  ERROR_VARIABLE parallel_stderr
)
if(NOT parallel_result EQUAL 0)
  message(FATAL_ERROR "pandia_predict --jobs=2 failed (${parallel_result}):\n${parallel_output}\n${parallel_stderr}")
endif()
# Everything before the metrics dump is the placement report; the metrics
# themselves differ legitimately (parallel runs bump the pool counters).
string(FIND "${predict_output}" "metrics:" serial_cut)
string(FIND "${parallel_output}" "metrics:" parallel_cut)
string(SUBSTRING "${predict_output}" 0 ${serial_cut} serial_report)
string(SUBSTRING "${parallel_output}" 0 ${parallel_cut} parallel_report)
if(NOT serial_report STREQUAL parallel_report)
  message(FATAL_ERROR "serial/parallel placement report mismatch:\n--- serial ---\n${serial_report}\n--- parallel (--jobs=2) ---\n${parallel_report}")
endif()

execute_process(
  COMMAND ${CHECK} ${OUT}.jobs2 predict predict.iteration optimizer.rank pipeline.profile
  RESULT_VARIABLE parallel_check_result
  OUTPUT_VARIABLE parallel_check_output
  ERROR_VARIABLE parallel_check_stderr
)
if(NOT parallel_check_result EQUAL 0)
  message(FATAL_ERROR "pandia_trace_check (--jobs=2 trace) failed (${parallel_check_result}):\n${parallel_check_output}\n${parallel_check_stderr}")
endif()
