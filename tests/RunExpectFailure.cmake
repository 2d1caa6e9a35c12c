# ctest helper: runs COMMAND (its arguments separated by "|") and passes
# only when the command exits with EXIT_CODE and its stderr matches
# STDERR_REGEX — ctest's own PASS_REGULAR_EXPRESSION ignores the exit code.
#
#   cmake "-DCOMMAND=prog|arg|..." -DEXIT_CODE=1 "-DSTDERR_REGEX=..." \
#         -P RunExpectFailure.cmake
string(REPLACE "|" ";" command "${COMMAND}")
execute_process(COMMAND ${command}
                RESULT_VARIABLE code
                OUTPUT_QUIET
                ERROR_VARIABLE err)
if(NOT code STREQUAL "${EXIT_CODE}")
  message(FATAL_ERROR "exit code ${code}, expected ${EXIT_CODE}; stderr: ${err}")
endif()
if(NOT err MATCHES "${STDERR_REGEX}")
  message(FATAL_ERROR "stderr does not match '${STDERR_REGEX}': ${err}")
endif()
