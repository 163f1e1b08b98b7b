# CTest script behind the `bench-smoke` label: runs the whole bench sweep in
# --quick mode (smaller sizes / iteration caps; LLMNPU_BENCH_QUICK exported
# to the benches) through the run_all driver, then asserts the
# BENCH_results.json it wrote still carries the
# llmnpu-bench-v2 schema plus the serving and kernel metric fields that
# downstream tooling keys on. Catches schema regressions on push without
# paying for the full bench sweep (full runs keep the real sizes).
#
# Also passes --trace so bench_serving's traced scenario writes a
# Perfetto-loadable Chrome trace next to the JSON (CI uploads it as an
# artifact), and asserts the bench_obs tracer-overhead rows are present.
#
# Expects: RUN_ALL (path to the driver), OUT (json path to write).
# Optional: TRACE (trace json path, default ${OUT}.trace.json).

if(NOT DEFINED TRACE)
  set(TRACE "${OUT}.trace.json")
endif()

execute_process(
  COMMAND ${RUN_ALL} --quiet --quick --out ${OUT} --trace ${TRACE}
  RESULT_VARIABLE rc)
if(NOT rc EQUAL 0)
  message(FATAL_ERROR "bench-smoke: run_all exited with ${rc}")
endif()

file(READ ${OUT} content)
foreach(needle
    "\"schema\": \"llmnpu-bench-v2\""
    "\"quick\": true"
    "\"name\": \"bench_serving\""
    "\"metrics\""
    "\"policy\""
    "\"throughput_rps\""
    "\"goodput_rps\""
    "\"ttft_p50_ms\""
    "\"ttft_p99_ms\""
    "\"e2e_p99_ms\""
    "\"mode\": \"decode_placement\""
    "\"decode_placement\": \"npu\""
    "\"decode_tokens_per_sec\""
    "\"name\": \"bench_table5_e2e\""
    "\"bench\": \"table5_e2e\""
    "\"name\": \"bench_kernels\""
    "\"bench\": \"kernels\""
    "\"kernel\": \"matmul_f32\""
    "\"variant\": \"tiled_packed\""
    "\"gflops\""
    "\"speedup_vs_naive\""
    "\"name\": \"bench_obs\""
    "\"bench\": \"obs\""
    "\"mode\": \"disabled\""
    "\"mode\": \"enabled_hot\""
    "\"ns_per_site\""
    "\"overhead_ratio\""
    "\"mode\": \"trace\""
    "\"write_ok\": true"
    "\"mode\": \"policy_sweep\""
    "\"placement_policy\": \"predicted\""
    "\"admission_policy\": \"predicted-slo\""
    "\"placement_flips\""
    "\"name\": \"bench_predict\""
    "\"bench\": \"predict\""
    "\"mode\": \"fit_error\""
    "\"median_rel_err\""
    "\"mode\": \"roundtrip\""
    "\"bitwise\": true"
    "\"mode\": \"decode_step\"")
  string(FIND "${content}" "${needle}" found)
  if(found EQUAL -1)
    message(FATAL_ERROR
      "bench-smoke: ${OUT} is missing '${needle}' — the "
      "BENCH_results.json schema regressed")
  endif()
endforeach()

if(NOT EXISTS ${TRACE})
  message(FATAL_ERROR
    "bench-smoke: ${TRACE} was not written — bench_serving's --trace "
    "scenario regressed")
endif()
file(READ ${TRACE} trace_content)
foreach(needle
    "\"traceEvents\""
    "numeric plane (wall clock)"
    "serving simulator (virtual time)"
    "\"ph\": \"X\"")
  string(FIND "${trace_content}" "${needle}" found)
  if(found EQUAL -1)
    message(FATAL_ERROR
      "bench-smoke: ${TRACE} is missing '${needle}' — the Chrome "
      "trace-event export regressed")
  endif()
endforeach()
message(STATUS "bench-smoke: schema ok (${OUT}); trace ok (${TRACE})")
