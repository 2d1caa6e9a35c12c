# ctest helper: runs COMMAND in a fresh WORK_DIR and passes only when it
# exits 0 and its stdout equals the file EXPECTED byte for byte.
#
#   cmake -DCOMMAND=prog -DWORK_DIR=dir -DEXPECTED=file \
#         -P RunCompareStdout.cmake
file(REMOVE_RECURSE ${WORK_DIR})
file(MAKE_DIRECTORY ${WORK_DIR})
execute_process(COMMAND ${COMMAND}
                WORKING_DIRECTORY ${WORK_DIR}
                RESULT_VARIABLE code
                OUTPUT_FILE ${WORK_DIR}/stdout.txt)
if(NOT code STREQUAL "0")
  message(FATAL_ERROR "${COMMAND} exited with ${code}")
endif()
execute_process(COMMAND ${CMAKE_COMMAND} -E compare_files
                        ${WORK_DIR}/stdout.txt ${EXPECTED}
                RESULT_VARIABLE differ)
if(NOT differ STREQUAL "0")
  message(FATAL_ERROR "stdout ${WORK_DIR}/stdout.txt differs from ${EXPECTED}")
endif()
