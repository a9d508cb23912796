# mdac-metrics-smoke: runs mdac-metrics under load and checks the scrape
# it prints, not just its exit status.
#
# Run as a script:  cmake -DMDAC_METRICS=<mdac-metrics binary> -P cmake/metrics_smoke.cmake
# Wired into ctest as the `mdac-metrics-smoke` target (see CMakeLists.txt).
# Fails when
#   * mdac-metrics exits non-zero;
#   * the scrape does not count the 200 submitted requests
#     (`mdac_engine_submitted_total 200`);
#   * the latency histogram's `mdac_engine_latency_ns_count` differs from
#     `mdac_engine_decided_total` (every decision is one latency sample),
#     or no request was decided;
#   * the per-worker `mdac_engine_worker_ops_total` samples do not add
#     up to the decided total (the tool only submits, so every decision
#     is a worker's).
if(NOT DEFINED MDAC_METRICS)
  message(FATAL_ERROR "metrics-smoke: pass -DMDAC_METRICS=<mdac-metrics binary>")
endif()

execute_process(COMMAND "${MDAC_METRICS}" --requests 200
                RESULT_VARIABLE status
                OUTPUT_VARIABLE page
                ERROR_VARIABLE errors)
if(NOT status EQUAL 0)
  message(FATAL_ERROR "metrics-smoke: mdac-metrics exited with '${status}':\n${errors}")
endif()

if(NOT page MATCHES "\nmdac_engine_submitted_total 200\n")
  message(FATAL_ERROR "metrics-smoke: no 'mdac_engine_submitted_total 200' line in:\n${page}")
endif()

# The value of the unlabelled sample `name`, or a fatal error.
function(sample_value name out_var)
  if(NOT page MATCHES "\n${name} ([0-9]+)\n")
    message(FATAL_ERROR "metrics-smoke: no '${name}' sample in:\n${page}")
  endif()
  set(${out_var} "${CMAKE_MATCH_1}" PARENT_SCOPE)
endfunction()

sample_value(mdac_engine_decided_total decided)
sample_value(mdac_engine_latency_ns_count latency_count)
if(decided EQUAL 0)
  message(FATAL_ERROR "metrics-smoke: no request was decided")
endif()
if(NOT latency_count EQUAL decided)
  message(FATAL_ERROR "metrics-smoke: mdac_engine_latency_ns_count ${latency_count} "
                      "!= mdac_engine_decided_total ${decided}")
endif()

set(worker_ops 0)
set(rest "${page}")
while(rest MATCHES "\nmdac_engine_worker_ops_total{worker=\"[0-9]+\"} ([0-9]+)(\n.*)")
  math(EXPR worker_ops "${worker_ops} + ${CMAKE_MATCH_1}")
  set(rest "${CMAKE_MATCH_2}")
endwhile()
if(NOT worker_ops EQUAL decided)
  message(FATAL_ERROR "metrics-smoke: worker ops add up to ${worker_ops}, "
                      "mdac_engine_decided_total is ${decided}")
endif()

message(STATUS "metrics-smoke: submitted 200, decided ${decided}, "
               "latency samples ${latency_count}, worker ops ${worker_ops}")
