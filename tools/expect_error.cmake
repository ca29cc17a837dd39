# Run a command that must be rejected: it has to exit with a nonzero status
# (not a crash) *and* print output matching REGEX. ctest's
# PASS_REGULAR_EXPRESSION alone ignores the exit status. With -DEXIT=0 the
# command must instead succeed (exit 0) and print output matching REGEX.
#
#   cmake -DREGEX=<regex> [-DEXIT=0] -P expect_error.cmake <command> [<arg>...]
set(command)
set(first 0)
math(EXPR last "${CMAKE_ARGC} - 1")
foreach(i RANGE ${last})
  if(first EQUAL 0 AND "${CMAKE_ARGV${i}}" STREQUAL "-P")
    math(EXPR first "${i} + 2")  # the command follows the script path
  elseif(first GREATER 0 AND i GREATER_EQUAL first)
    list(APPEND command "${CMAKE_ARGV${i}}")
  endif()
endforeach()
if(NOT command)
  message(FATAL_ERROR "expect_error.cmake: no command given")
endif()

execute_process(COMMAND ${command} RESULT_VARIABLE status
                OUTPUT_VARIABLE out ERROR_VARIABLE err)
message("${out}${err}")
if(DEFINED EXIT)
  if(NOT status STREQUAL "${EXIT}")
    message(FATAL_ERROR "expected exit status ${EXIT}, got '${status}'")
  endif()
elseif(NOT status MATCHES "^[1-9][0-9]*$")
  message(FATAL_ERROR "expected a nonzero exit status, got '${status}'")
endif()
if(NOT "${out}${err}" MATCHES "${REGEX}")
  message(FATAL_ERROR "output does not match '${REGEX}'")
endif()
