# Run CMD (a ;-list) and pass only when it exits with EXPECT, so a crash
# or a usage error cannot pass for a failed correctness check.
#   cmake -DEXPECT=1 "-DCMD=prog;arg;..." -P expect_exit.cmake
execute_process(COMMAND ${CMD} RESULT_VARIABLE rc)
if(NOT rc STREQUAL "${EXPECT}")
    message(FATAL_ERROR "expected exit code ${EXPECT}, got ${rc}")
endif()
