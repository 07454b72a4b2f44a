# Runs CMD with the ;-separated ARGS and fails unless it exits with EXIT and
# its stderr matches the regular expression STDERR.
#   cmake -DCMD=prog "-DARGS=a;b" -DEXIT=2 -DSTDERR=^error: -P expect_exit.cmake
execute_process(COMMAND ${CMD} ${ARGS}
                RESULT_VARIABLE code
                OUTPUT_VARIABLE out
                ERROR_VARIABLE err)
if(NOT code STREQUAL "${EXIT}")
  message(FATAL_ERROR "expected exit ${EXIT}, got ${code}\nstderr:\n${err}")
endif()
if(NOT err MATCHES "${STDERR}")
  message(FATAL_ERROR "stderr does not match '${STDERR}':\n${err}")
endif()
