# Runs one command and fails unless it exits with status exactly 1 and its
# stderr matches a regular expression: bad input must end the program with
# a message, not crash it. A process killed by a signal (an uncaught
# exception aborts) yields a non-numeric RESULT_VARIABLE, so it fails here,
# where a WILL_FAIL or PASS_REGULAR_EXPRESSION test would accept it.
#
# Usage (the command and its arguments follow the script):
#   cmake -DSTDERR_REGEX=<regex> -P expect_exit.cmake <program> [args...]
cmake_minimum_required(VERSION 3.16)

if(NOT DEFINED STDERR_REGEX)
  message(FATAL_ERROR "expect_exit.cmake needs -DSTDERR_REGEX=<regex>")
endif()

# Everything after "-P <script>" is the command.
set(command)
set(reading "")
math(EXPR last "${CMAKE_ARGC} - 1")
foreach(i RANGE 1 ${last})
  if(reading STREQUAL "command")
    list(APPEND command "${CMAKE_ARGV${i}}")
  elseif(reading STREQUAL "script")
    set(reading "command")
  elseif(CMAKE_ARGV${i} STREQUAL "-P")
    set(reading "script")
  endif()
endforeach()
if(NOT command)
  message(FATAL_ERROR "expect_exit.cmake: no command after the script")
endif()

execute_process(COMMAND ${command}
                RESULT_VARIABLE status
                OUTPUT_VARIABLE out
                ERROR_VARIABLE err)
if(NOT status STREQUAL "1")
  message(FATAL_ERROR
          "expected exit status 1, got '${status}'\nstderr:\n${err}")
endif()
if(NOT err MATCHES "${STDERR_REGEX}")
  message(FATAL_ERROR
          "stderr does not match '${STDERR_REGEX}':\n${err}")
endif()
