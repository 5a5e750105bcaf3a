# Runs one bench/ harness and compares one of its `--- csv: NAME ---`
# blocks with a golden file, byte for byte:
#
#   cmake -DHARNESS=<binary> -DBLOCK=<NAME> -DGOLDEN=<file.csv>
#         -P check_paper_csv.cmake
#
# The harnesses are deterministic, so any change that moves a paper
# number fails. HMPT_UPDATE_GOLDEN=1 rewrites the golden instead
# (regenerate only for an intended change of the paper numbers).
execute_process(COMMAND ${HARNESS} OUTPUT_VARIABLE out RESULT_VARIABLE rc)
if(NOT rc EQUAL 0)
  message(FATAL_ERROR "${HARNESS} exited with ${rc}")
endif()

set(begin "--- csv: ${BLOCK} ---\n")
string(FIND "${out}" "${begin}" start)
if(start EQUAL -1)
  message(FATAL_ERROR "${HARNESS} printed no '--- csv: ${BLOCK} ---' block")
endif()
string(LENGTH "${begin}" skip)
math(EXPR start "${start} + ${skip}")
string(SUBSTRING "${out}" ${start} -1 rest)
string(FIND "${rest}" "--- end csv ---" stop)
string(SUBSTRING "${rest}" 0 ${stop} csv)

if("$ENV{HMPT_UPDATE_GOLDEN}" STREQUAL "1")
  file(WRITE "${GOLDEN}" "${csv}")
  return()
endif()
file(READ "${GOLDEN}" golden)
if(NOT csv STREQUAL golden)
  message("--- got:\n${csv}--- expected:\n${golden}")
  message(FATAL_ERROR "csv block '${BLOCK}' of ${HARNESS} differs from "
                      "${GOLDEN}")
endif()
