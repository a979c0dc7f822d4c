# Runs EXE with ARGS (comma-separated) in an empty directory WORK and fails
# unless it exits with EXPECT, prints its usage, and leaves WORK empty.
#
#   cmake -DEXE=path -DARGS=a,b -DEXPECT=2 -DWORK=dir -P check_usage_exit.cmake
string(REPLACE "," ";" args "${ARGS}")
file(REMOVE_RECURSE "${WORK}")
file(MAKE_DIRECTORY "${WORK}")
execute_process(COMMAND "${EXE}" ${args}
  WORKING_DIRECTORY "${WORK}"
  RESULT_VARIABLE code
  OUTPUT_VARIABLE out
  ERROR_VARIABLE err)
if(NOT code EQUAL EXPECT)
  message(FATAL_ERROR "exit ${code}, expected ${EXPECT}\n${out}${err}")
endif()
if(NOT "${out}${err}" MATCHES "usage: ")
  message(FATAL_ERROR "no usage text\n${out}${err}")
endif()
file(GLOB left "${WORK}/*")
if(left)
  message(FATAL_ERROR "wrote ${left}")
endif()
file(REMOVE_RECURSE "${WORK}")
