# Report-shape check for tools/perf_report: a --quick --repeats 1 run must
# exit 0 and write an ecotune-perf-report/1 document whose "results" hold
# every expected metric as a number. Timings are machine-dependent, so only
# the shape is checked; BENCH_PR*.json records track the figures.
#
# Usage:
#   cmake -DPERF_REPORT=<exe> -DWORK_DIR=<dir> -P perf_report_check.cmake

cmake_minimum_required(VERSION 3.19)  # string(JSON)

if(NOT DEFINED PERF_REPORT OR NOT DEFINED WORK_DIR)
  message(FATAL_ERROR
    "perf_report_check: PERF_REPORT and WORK_DIR are required")
endif()

set(EXPECTED_METRICS
  mlp_train_epoch_ns_per_sample
  mlp_forward_scalar_ns_per_point
  mlp_forward_batch_ns_per_point
  grid_recommend_us_per_call
  energy_model_predict_ns_per_call
  store_lookup_shard16_t1_ns_per_op
  store_lookup_shard16_t4_ns_per_op
  store_lookup_shard16_t16_ns_per_op
  store_open_ms_per_mb
  perf_model_evaluate_ns_per_call
  counter_model_evaluate_ns_per_call
  node_run_kernel_ns_per_call
  traced_app_run_us_per_run
  trace_post_process_us_per_call
  rrl_production_run_us_per_run)

file(REMOVE_RECURSE "${WORK_DIR}")
file(MAKE_DIRECTORY "${WORK_DIR}")
set(report "${WORK_DIR}/report.json")
execute_process(
  COMMAND "${PERF_REPORT}" --quick --repeats 1 --out "${report}"
  OUTPUT_FILE "${WORK_DIR}/stdout.txt"
  ERROR_FILE "${WORK_DIR}/stderr.txt"
  RESULT_VARIABLE rc)
if(NOT rc EQUAL 0)
  message(FATAL_ERROR "perf_report_check: ${PERF_REPORT} failed (rc=${rc}); "
    "see ${WORK_DIR}/stderr.txt")
endif()

file(READ "${report}" text)
string(JSON schema ERROR_VARIABLE err GET "${text}" schema)
if(err OR NOT schema STREQUAL "ecotune-perf-report/1")
  message(FATAL_ERROR
    "perf_report_check: ${report} is not an ecotune-perf-report/1 document")
endif()
set(missing "")
foreach(metric IN LISTS EXPECTED_METRICS)
  string(JSON type ERROR_VARIABLE err TYPE "${text}" results ${metric})
  if(err OR NOT type STREQUAL "NUMBER")
    list(APPEND missing ${metric})
  endif()
endforeach()
if(missing)
  list(JOIN missing ", " missing_text)
  message(FATAL_ERROR
    "perf_report_check: ${report} lacks numeric results: ${missing_text}")
endif()

list(LENGTH EXPECTED_METRICS count)
message(STATUS "perf_report_check: all ${count} metrics present")
