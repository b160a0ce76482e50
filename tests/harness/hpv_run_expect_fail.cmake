# Runs hpv_run on a spec that must fail, and checks that it exits 1 with
# MESSAGE on stderr (a CheckError, not an abort).
#
#   cmake -DHPV_RUN=<hpv_run> -DSPEC=<spec.json> -DOUT=<out.json>
#         -DMESSAGE=<text> -P hpv_run_expect_fail.cmake
execute_process(COMMAND ${HPV_RUN} ${SPEC} --out=${OUT}
  RESULT_VARIABLE rc ERROR_VARIABLE err OUTPUT_QUIET)
if(NOT rc EQUAL 1)
  message(FATAL_ERROR "hpv_run ${SPEC} exited with ${rc}, expected 1:\n${err}")
endif()
string(FIND "${err}" "${MESSAGE}" at)
if(at EQUAL -1)
  message(FATAL_ERROR "hpv_run ${SPEC} failed without '${MESSAGE}':\n${err}")
endif()
message(STATUS "hpv_run failed as expected: ${err}")
