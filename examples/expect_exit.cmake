# Runs EXE with the '|'-separated ARGS and fails unless it exits with
# EXPECT_RC and its combined stdout+stderr matches the regex EXPECT_RE.
#   cmake -DEXE=path -DARGS="--lr|0.1x" -DEXPECT_RC=2 -DEXPECT_RE=... -P expect_exit.cmake
string(REPLACE "|" ";" arg_list "${ARGS}")
execute_process(COMMAND ${EXE} ${arg_list}
  RESULT_VARIABLE rc OUTPUT_VARIABLE out ERROR_VARIABLE err TIMEOUT 60)
if(NOT "${rc}" STREQUAL "${EXPECT_RC}")
  message(FATAL_ERROR "exit status ${rc}, expected ${EXPECT_RC}\n${out}${err}")
endif()
if(NOT "${out}${err}" MATCHES "${EXPECT_RE}")
  message(FATAL_ERROR "output does not match '${EXPECT_RE}':\n${out}${err}")
endif()
message(STATUS "exit ${rc}: ${out}${err}")
