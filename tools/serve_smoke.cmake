# Smoke test driven by ctest (see tools/CMakeLists.txt): run the
# pandia_serve daemon on a two-machine simulated rack, feed it a request
# script over stdin (valid STATUS/METRICS plus the telemetry verbs —
# METRICS format=expo, TELEMETRY, RECORDER — a malformed verb, a DEPART for
# a job that does not exist, an ADMIT, then SHUTDOWN), and assert the daemon
# answers every request with a structured response block and exits cleanly
# — bad requests must never take the process down. A second run against the
# same journal verifies restart replay gives the admitted job the same
# STATUS row.
#
# The ADMIT carries a pandia_profile description with a hand-edited comment
# line appended, escaped here the way src/serialize/wire.h defines; the
# journal keeps that text as received, and replay parses it back.
#
# Variables (passed via -D): SERVE, PROFILE, WORK.

file(MAKE_DIRECTORY ${WORK})
file(REMOVE ${WORK}/journal.wire ${WORK}/ep.workload)
execute_process(
  COMMAND ${PROFILE} x3-2 EP ${WORK}/ep.workload
  RESULT_VARIABLE profile_result
  OUTPUT_VARIABLE profile_output
  ERROR_VARIABLE profile_stderr
)
if(NOT profile_result EQUAL 0)
  message(FATAL_ERROR "pandia_profile failed (${profile_result}):\n${profile_output}\n${profile_stderr}")
endif()
file(APPEND ${WORK}/ep.workload "# hand-edited\n")
file(READ ${WORK}/ep.workload description)
# Wire escaping (EscapeValue): backslash first, then newline, CR, tab and
# space, so no escape this adds is escaped again.
string(REPLACE "\\" "\\\\" description "${description}")
string(REPLACE "\n" "\\n" description "${description}")
string(REPLACE "\r" "\\r" description "${description}")
string(REPLACE "\t" "\\t" description "${description}")
string(REPLACE " " "\\s" description "${description}")
set(admit "ADMIT name=smoke threads=2 desc.x3-2=${description}")
set(requests "STATUS\nMETRICS\nMETRICS format=expo\nTELEMETRY\nRECORDER\nFROBNICATE everything\nDEPART name=ghost\nnot a request line\n${admit}\nSTATUS\nSHUTDOWN\n")
file(WRITE ${WORK}/requests.txt "${requests}")

execute_process(
  COMMAND ${SERVE} --machine node0=x3-2 --machine node1=x3-2
          --journal=${WORK}/journal.wire
  INPUT_FILE ${WORK}/requests.txt
  RESULT_VARIABLE serve_result
  OUTPUT_VARIABLE serve_output
  ERROR_VARIABLE serve_stderr
)
if(NOT serve_result EQUAL 0)
  message(FATAL_ERROR "pandia_serve failed (${serve_result}):\n${serve_output}\n${serve_stderr}")
endif()
foreach(needle "ok STATUS" "ok METRICS" "ok TELEMETRY" "ok RECORDER"
        "machines = 2" "ok ADMIT" "ok SHUTDOWN")
  if(NOT serve_output MATCHES "${needle}")
    message(FATAL_ERROR "pandia_serve output is missing '${needle}':\n${serve_output}")
  endif()
endforeach()
# The expo exposition: bare `name value` samples and `{le=...}` histogram
# rows for the per-verb instruments (STATUS ran before the expo dump).
if(NOT serve_output MATCHES "serve\\.status\\.requests 1")
  message(FATAL_ERROR "expo format is missing 'serve.status.requests 1':\n${serve_output}")
endif()
if(NOT serve_output MATCHES "serve\\.status\\.latency_us{le=")
  message(FATAL_ERROR "expo format is missing histogram rows for serve.status.latency_us:\n${serve_output}")
endif()
# An empty rack's TELEMETRY and the RECORDER preamble.
if(NOT serve_output MATCHES "mutation-seq = 0")
  message(FATAL_ERROR "TELEMETRY is missing 'mutation-seq = 0':\n${serve_output}")
endif()
if(NOT serve_output MATCHES "capacity = 256")
  message(FATAL_ERROR "RECORDER is missing 'capacity = 256':\n${serve_output}")
endif()
if(NOT serve_output MATCHES "event = seq=1 ")
  message(FATAL_ERROR "RECORDER dump is missing the first request event:\n${serve_output}")
endif()
if(NOT serve_output MATCHES "err invalid-argument")
  message(FATAL_ERROR "malformed requests did not produce err invalid-argument:\n${serve_output}")
endif()
if(NOT serve_output MATCHES "err not-found")
  message(FATAL_ERROR "DEPART of an unknown job did not produce err not-found:\n${serve_output}")
endif()

string(REGEX MATCH "job = smoke[^\n]*" job_row "${serve_output}")
if(job_row STREQUAL "")
  message(FATAL_ERROR "STATUS after the ADMIT has no 'job = smoke' row:\n${serve_output}")
endif()

# The ADMITTED record holds the description as the request carried it,
# hand-edited comment line included.
file(READ ${WORK}/journal.wire journal_text)
if(NOT journal_text MATCHES "ADMITTED name=smoke [^\n]*#\\\\shand-edited")
  message(FATAL_ERROR "the ADMITTED record lacks the text as received:\n${journal_text}")
endif()

# Restart against the same journal: replaying the ADMITTED record must give
# the job the same STATUS row.
file(WRITE ${WORK}/status_only.txt "STATUS\nSHUTDOWN\n")
execute_process(
  COMMAND ${SERVE} --machine node0=x3-2 --machine node1=x3-2
          --journal=${WORK}/journal.wire
  INPUT_FILE ${WORK}/status_only.txt
  RESULT_VARIABLE replay_result
  OUTPUT_VARIABLE replay_output
  ERROR_VARIABLE replay_stderr
)
if(NOT replay_result EQUAL 0)
  message(FATAL_ERROR "pandia_serve restart failed (${replay_result}):\n${replay_output}\n${replay_stderr}")
endif()
if(NOT replay_output MATCHES "machines = 2")
  message(FATAL_ERROR "restarted daemon STATUS is missing the rack:\n${replay_output}")
endif()
string(REGEX MATCH "job = smoke[^\n]*" replay_job_row "${replay_output}")
if(NOT replay_job_row STREQUAL job_row)
  message(FATAL_ERROR "restarted daemon STATUS row '${replay_job_row}' differs from '${job_row}':\n${replay_output}")
endif()
