# Runs a program twice, on the kernel tier the environment selects (the
# best one the CPU has, or the E2NVM_SIMD override a check.sh pass sets)
# and on E2NVM_SIMD=scalar, and fails unless both runs exit 0, neither
# reports "placement stopped" (sim_driver's early end) and both print
# byte-identical output (for sim_driver that includes the exact count of
# bits flipped). ARGS is the program's arguments, separated by spaces.
#
#   cmake -DPROGRAM=build/examples/sim_driver \
#         "-DARGS=--placement e2 --writes 2000" -P compare_simd_tiers.cmake
separate_arguments(args UNIX_COMMAND "${ARGS}")
execute_process(COMMAND ${PROGRAM} ${args}
                OUTPUT_VARIABLE tier_out ERROR_VARIABLE tier_err
                RESULT_VARIABLE tier_rc)
execute_process(COMMAND ${CMAKE_COMMAND} -E env E2NVM_SIMD=scalar
                        ${PROGRAM} ${args}
                OUTPUT_VARIABLE scalar_out ERROR_VARIABLE scalar_err
                RESULT_VARIABLE scalar_rc)
foreach(run tier scalar)
  if(NOT ${run}_rc EQUAL 0 OR "${${run}_err}" MATCHES "placement stopped")
    message(FATAL_ERROR "${PROGRAM} failed on the ${run} run "
                        "(exit ${${run}_rc}):\n${${run}_err}")
  endif()
endforeach()
if(NOT tier_out STREQUAL scalar_out)
  message(FATAL_ERROR "kernel tiers disagree\n"
                      "--- selected tier ---\n${tier_out}"
                      "--- scalar ---\n${scalar_out}")
endif()
message(STATUS "selected tier matches scalar:\n${tier_out}")
