# Runs COMMAND (a ;-separated list) and fails unless it exits with EXPECT
# and its stderr matches STDERR_REGEX. Invoked by ctest via `cmake -P`.
execute_process(COMMAND ${COMMAND}
                RESULT_VARIABLE code
                OUTPUT_VARIABLE out
                ERROR_VARIABLE err)
if(NOT code STREQUAL EXPECT)
  message(FATAL_ERROR "expected exit code ${EXPECT}, got '${code}'\nstderr:\n${err}")
endif()
if(NOT err MATCHES "${STDERR_REGEX}")
  message(FATAL_ERROR "stderr does not match '${STDERR_REGEX}':\n${err}")
endif()
