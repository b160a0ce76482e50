# Runs hpv_run on a small heal_until spec and checks that its BENCH json
# records the phase's outcome in its one point: cycles_to_heal_<label> as a
# number within max_cycles, and recovered_<label> as a boolean.
#
#   cmake -DHPV_RUN=<hpv_run> -DSPEC=<spec.json> -DOUT=<out.json>
#         -DLABEL=<heal phase label> -DMAX_CYCLES=<n> -P hpv_run_heal_json.cmake
execute_process(COMMAND ${HPV_RUN} ${SPEC} --out=${OUT} RESULT_VARIABLE rc)
if(NOT rc EQUAL 0)
  message(FATAL_ERROR "hpv_run ${SPEC} exited with ${rc}")
endif()
file(READ ${OUT} doc)

string(JSON cycles_type ERROR_VARIABLE err TYPE "${doc}" points 0 cycles_to_heal_${LABEL})
if(err OR NOT cycles_type STREQUAL "NUMBER")
  message(FATAL_ERROR "${OUT}: cycles_to_heal_${LABEL} missing or not a number")
endif()
string(JSON cycles GET "${doc}" points 0 cycles_to_heal_${LABEL})
if(cycles LESS 1 OR cycles GREATER ${MAX_CYCLES})
  message(FATAL_ERROR "${OUT}: cycles_to_heal_${LABEL} = ${cycles}, outside 1..${MAX_CYCLES}")
endif()

string(JSON recovered_type ERROR_VARIABLE err TYPE "${doc}" points 0 recovered_${LABEL})
if(err OR NOT recovered_type STREQUAL "BOOLEAN")
  message(FATAL_ERROR "${OUT}: recovered_${LABEL} missing or not a boolean")
endif()
string(JSON recovered GET "${doc}" points 0 recovered_${LABEL})
message(STATUS "cycles_to_heal_${LABEL}=${cycles} recovered_${LABEL}=${recovered}")
