// Output checks: capacity refusals, the free-thread model, transcripts.
#include <algorithm>
#include <cstdlib>
#include <utility>

#include "perfbench/bench.h"

namespace pandia {
namespace perfbench {

namespace {

// "k1=v1 k2=v2 ..." tokens of a payload row value.
std::map<std::string, std::string> Fields(std::string_view text) {
  std::map<std::string, std::string> fields;
  size_t pos = 0;
  while (pos < text.size()) {
    size_t end = text.find(' ', pos);
    if (end == std::string_view::npos) {
      end = text.size();
    }
    const std::string_view token = text.substr(pos, end - pos);
    const size_t eq = token.find('=');
    if (eq != std::string_view::npos) {
      fields.emplace(std::string(token.substr(0, eq)), std::string(token.substr(eq + 1)));
    }
    pos = end + 1;
  }
  return fields;
}

// Splits "key = value" rows; false for any other row.
bool SplitRow(const std::string& row, std::string* key, std::string* value) {
  const size_t sep = row.find(" = ");
  if (sep == std::string::npos) {
    return false;
  }
  *key = row.substr(0, sep);
  *value = row.substr(sep + 3);
  return true;
}

StatusOr<int> ToInt(const std::string& text) {
  char* end = nullptr;
  const long value = std::strtol(text.c_str(), &end, 10);
  if (text.empty() || *end != '\0') {
    return Status::InvalidArgument("not an integer: '" + text + "'");
  }
  return static_cast<int>(value);
}

}  // namespace

bool IsCapacityRefusal(const wire::Response& response) {
  return !response.ok && response.code == StatusCode::kFailedPrecondition &&
         response.error.rfind("no machine can place job", 0) == 0;
}

StatusOr<wire::Response> ParseRawResponse(const std::string& raw) {
  std::vector<std::string> lines;
  size_t pos = 0;
  while (pos < raw.size()) {
    size_t end = raw.find('\n', pos);
    if (end == std::string::npos) {
      end = raw.size();
    }
    lines.push_back(raw.substr(pos, end - pos));
    pos = end + 1;
  }
  return wire::ParseResponse(lines);
}

std::optional<std::string> PayloadValue(const wire::Response& response,
                                        std::string_view key) {
  std::string row_key;
  std::string value;
  for (const std::string& row : response.payload) {
    if (SplitRow(row, &row_key, &value) && row_key == key) {
      return value;
    }
  }
  return std::nullopt;
}

ThreadModel::ThreadModel(int machines, int cores, int threads_per_core)
    : cores_(cores),
      threads_per_core_(threads_per_core),
      free_(static_cast<size_t>(machines),
            std::vector<int>(static_cast<size_t>(cores), threads_per_core)) {}

Status ThreadModel::Occupy(const std::string& name, int machine,
                           const std::string& csv) {
  if (machine < 0 || machine >= static_cast<int>(free_.size())) {
    return Status::InvalidArgument(StrFormat("job '%s' on unknown machine %d",
                                             name.c_str(), machine));
  }
  if (jobs_.count(name) != 0) {
    return Status::FailedPrecondition("job '" + name + "' placed twice");
  }
  Job job{machine, {}};
  size_t pos = 0;
  while (pos <= csv.size()) {
    size_t end = csv.find(',', pos);
    if (end == std::string::npos) {
      end = csv.size();
    }
    StatusOr<int> threads = ToInt(csv.substr(pos, end - pos));
    if (!threads.ok() || *threads < 0 || *threads > threads_per_core_) {
      return Status::InvalidArgument("bad placement '" + csv + "'");
    }
    job.per_core.push_back(static_cast<uint8_t>(*threads));
    pos = end + 1;
  }
  if (static_cast<int>(job.per_core.size()) != cores_) {
    return Status::InvalidArgument("placement '" + csv + "' has the wrong core count");
  }
  std::vector<int>& free = free_[static_cast<size_t>(machine)];
  for (int c = 0; c < cores_; ++c) {
    if (job.per_core[static_cast<size_t>(c)] > free[static_cast<size_t>(c)]) {
      return Status::FailedPrecondition(StrFormat(
          "job '%s' oversubscribes core %d of machine %d", name.c_str(), c, machine));
    }
  }
  for (int c = 0; c < cores_; ++c) {
    free[static_cast<size_t>(c)] -= job.per_core[static_cast<size_t>(c)];
    used_ += job.per_core[static_cast<size_t>(c)];
  }
  jobs_.emplace(name, std::move(job));
  if (std::find(order_.begin(), order_.end(), name) == order_.end()) {
    order_.push_back(name);
  }
  return Status::Ok();
}

void ThreadModel::Release(const std::string& name) {
  const auto it = jobs_.find(name);
  std::vector<int>& free = free_[static_cast<size_t>(it->second.machine)];
  for (int c = 0; c < cores_; ++c) {
    free[static_cast<size_t>(c)] += it->second.per_core[static_cast<size_t>(c)];
    used_ -= it->second.per_core[static_cast<size_t>(c)];
  }
  jobs_.erase(it);
}

int ThreadModel::NeighboursOf(const std::string& job) const {
  const auto it = jobs_.find(job);
  if (it == jobs_.end()) {
    return 0;
  }
  return static_cast<int>(std::count_if(jobs_.begin(), jobs_.end(), [&](const auto& entry) {
    return entry.second.machine == it->second.machine;
  }));
}

Status ThreadModel::Apply(const wire::Request& request, const wire::Response& response) {
  if (!response.ok) {
    if (request.verb == "ADMIT" && IsCapacityRefusal(response)) {
      return Status::Ok();
    }
    return Status::Internal(StrFormat("%s failed: %s %s", request.verb.c_str(),
                                      wire::WireCodeName(response.code).c_str(),
                                      response.error.c_str()));
  }
  const std::string* name = request.Find("name");
  if (request.verb == "ADMIT") {
    const std::optional<std::string> machine = PayloadValue(response, "machine");
    const std::optional<std::string> placement = PayloadValue(response, "placement");
    if (name == nullptr || !machine || !placement) {
      return Status::Internal("ADMIT response misses machine or placement");
    }
    const StatusOr<int> index = ToInt(*machine);
    if (!index.ok()) {
      return index.status();
    }
    return Occupy(*name, *index, *placement);
  }
  if (request.verb == "DEPART") {
    const std::optional<std::string> machine = PayloadValue(response, "machine");
    if (name == nullptr || !machine || jobs_.count(*name) == 0) {
      return Status::Internal("DEPART of a job the model does not hold");
    }
    const StatusOr<int> index = ToInt(*machine);
    if (!index.ok()) {
      return index.status();
    }
    if (*index != jobs_.at(*name).machine) {
      return Status::Internal("DEPART names another machine than the ADMIT did");
    }
    Release(*name);
    order_.erase(std::find(order_.begin(), order_.end(), *name));
    std::string key;
    std::string value;
    for (const std::string& row : response.payload) {
      if (!SplitRow(row, &key, &value) || key == "machine") {
        continue;
      }
      if (key != "moved") {
        return Status::Internal("unexpected DEPART row '" + row + "'");
      }
      const std::string moved = value.substr(0, value.find(' '));
      const std::map<std::string, std::string> fields = Fields(value);
      if (jobs_.count(moved) == 0 || !fields.count("machine") ||
          !fields.count("placement")) {
        return Status::Internal("bad moved row '" + row + "'");
      }
      const StatusOr<int> to = ToInt(fields.at("machine"));
      if (!to.ok()) {
        return to.status();
      }
      Release(moved);
      PANDIA_RETURN_IF_ERROR(Occupy(moved, *to, fields.at("placement")));
    }
    return Status::Ok();
  }
  if (request.verb == "TELEMETRY") {
    const std::optional<std::string> jobs = PayloadValue(response, "jobs");
    if (!jobs || *jobs != StrFormat("%zu", jobs_.size())) {
      return Status::Internal("TELEMETRY job count disagrees with the model");
    }
  }
  return Status::Ok();
}

Status ThreadModel::MatchStatus(const wire::Response& status) const {
  if (!status.ok) {
    return Status::Internal("STATUS failed: " + status.error);
  }
  size_t jobs_seen = 0;
  std::string key;
  std::string value;
  for (const std::string& row : status.payload) {
    if (!SplitRow(row, &key, &value)) {
      continue;
    }
    const std::map<std::string, std::string> fields = Fields(value);
    if (key == "machine" && fields.count("free") != 0) {
      const StatusOr<int> machine = ToInt(value.substr(0, value.find(' ')));
      const StatusOr<int> free = ToInt(fields.at("free"));
      if (!machine.ok() || !free.ok() || *machine < 0 ||
          *machine >= static_cast<int>(free_.size())) {
        return Status::Internal("bad STATUS machine row '" + row + "'");
      }
      int model_free = 0;
      for (int f : free_[static_cast<size_t>(*machine)]) {
        model_free += f;
      }
      if (*free != model_free) {
        return Status::Internal(StrFormat("STATUS machine %d free=%d, model %d",
                                          *machine, *free, model_free));
      }
    } else if (key == "job") {
      ++jobs_seen;
      const std::string name = value.substr(0, value.find(' '));
      const auto it = jobs_.find(name);
      if (it == jobs_.end() || !fields.count("machine") || !fields.count("placement")) {
        return Status::Internal("STATUS job '" + name + "' unknown to the model");
      }
      std::string csv;
      for (uint8_t t : it->second.per_core) {
        if (!csv.empty()) {
          csv += ',';
        }
        csv += StrFormat("%d", t);
      }
      if (fields.at("machine") != StrFormat("%d", it->second.machine) ||
          fields.at("placement") != csv) {
        return Status::Internal("STATUS placement of '" + name + "' disagrees");
      }
    }
  }
  if (jobs_seen != jobs_.size()) {
    return Status::Internal(StrFormat("STATUS lists %zu jobs, model holds %zu",
                                      jobs_seen, jobs_.size()));
  }
  return Status::Ok();
}

bool TranscriptCheck::Check(size_t index, const std::string& raw) {
  if (episode_ == 0) {
    if (first_.size() <= index) {
      first_.resize(index + 1);
    }
    first_[index] = raw;
    return true;
  }
  if ((index < first_.size() && first_[index] == raw) || mismatched_this_episode_) {
    return true;
  }
  mismatched_this_episode_ = true;
  mismatch_ = StrFormat("episode %zu response %zu differs from episode 1", episode_ + 1,
                        index);
  return false;
}

void TranscriptCheck::NextEpisode() {
  ++episode_;
  mismatched_this_episode_ = false;
}

}  // namespace perfbench
}  // namespace pandia
