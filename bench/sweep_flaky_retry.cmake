# A sweep whose first child launch fails once (COBRA_FAULT=
# sweep.child_spawn#1, set on the test) must be healed by the retry: exit
# 0, and its output shows the failed first attempt and the retry, so a
# sweep in which the fault never fired cannot pass. Run as
#   cmake -DSWEEP=<cobra_sweep> -DBINDIR=<bench dir> -DOUT=<merged json>
#         -P sweep_flaky_retry.cmake
execute_process(
  COMMAND ${SWEEP} --bindir ${BINDIR} --bench bench_expander_cover
    --graph "rreg:n=128,d=6,seed=5" --threads 1,2 --smoke --trials 2
    --out ${OUT}
  RESULT_VARIABLE code OUTPUT_VARIABLE out ERROR_VARIABLE err)
if(NOT code STREQUAL "0")
  message(FATAL_ERROR "cobra_sweep: exit '${code}', expected 0\n${out}${err}")
endif()
foreach(expected "attempt 1/2 FAILED: exit 127" "retry after 200 ms")
  string(FIND "${out}${err}" "${expected}" at)
  if(at EQUAL -1)
    message(FATAL_ERROR "cobra_sweep output lacks '${expected}'\n${out}${err}")
  endif()
endforeach()
