#include "pbs/job.h"

namespace pbs {

std::string_view to_string(JobState s) {
  switch (s) {
    case JobState::kQueued: return "QUEUED";
    case JobState::kHeld: return "HELD";
    case JobState::kWaiting: return "WAITING";
    case JobState::kRunning: return "RUNNING";
    case JobState::kExiting: return "EXITING";
    case JobState::kComplete: return "COMPLETE";
  }
  return "?";
}

char state_letter(JobState s) {
  switch (s) {
    case JobState::kQueued: return 'Q';
    case JobState::kHeld: return 'H';
    case JobState::kWaiting: return 'W';
    case JobState::kRunning: return 'R';
    case JobState::kExiting: return 'E';
    case JobState::kComplete: return 'C';
  }
  return '?';
}

std::string job_id_string(JobId id, const std::string& server_suffix) {
  return std::to_string(id) + "." + server_suffix;
}

}  // namespace pbs
