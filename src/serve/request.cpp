#include "serve/request.h"

#include <charconv>
#include <sstream>

#include "sim/parse.h"
#include "workloads/registry.h"

namespace dlpsim::serve {

namespace {

/// Splits "key rest-of-line"; returns false on a blank line.
bool SplitField(const std::string& line, std::string* key,
                std::string* value) {
  const std::size_t sp = line.find(' ');
  if (sp == std::string::npos) {
    if (line.empty()) return false;
    *key = line;
    value->clear();
    return true;
  }
  *key = line.substr(0, sp);
  *value = line.substr(sp + 1);
  return true;
}

void Fail(std::string* err, const std::string& what) {
  if (err != nullptr) *err = what;
}

}  // namespace

std::string SanitizeValue(std::string value) {
  for (char& c : value) {
    if (c == '\n' || c == '\r') c = ' ';
  }
  return value;
}

std::string ScaleText(double scale) {
  char buf[32];  // the longest shortest-form double is 24 characters
  return std::string(buf, std::to_chars(buf, buf + sizeof(buf), scale).ptr);
}

std::string ExperimentRequest::Serialize() const {
  std::ostringstream os;
  os << "id " << id << '\n';
  os << "app " << SanitizeValue(app) << '\n';
  os << "config " << SanitizeValue(config) << '\n';
  os << "scale " << ScaleText(scale) << '\n';
  if (!trace.empty()) os << "trace " << SanitizeValue(trace) << '\n';
  if (deadline_ms > 0) os << "deadline_ms " << deadline_ms << '\n';
  if (watchdog_cycles > 0) os << "watchdog_cycles " << watchdog_cycles << '\n';
  if (!faults.empty()) os << "faults " << SanitizeValue(faults) << '\n';
  if (!chaos.empty()) os << "chaos " << SanitizeValue(chaos) << '\n';
  if (nocache) os << "nocache 1\n";
  os << "attempt " << attempt << '\n';
  return os.str();
}

bool ExperimentRequest::Parse(const std::string& text, ExperimentRequest* out,
                              std::string* err) {
  ExperimentRequest r;
  bool saw_app = false;
  bool saw_config = false;
  std::istringstream is(text);
  std::string line;
  while (std::getline(is, line)) {
    std::string key;
    std::string value;
    if (!SplitField(line, &key, &value)) continue;
    if (key == "id") {
      if (!ParseU64(value, &r.id)) return Fail(err, "bad id"), false;
    } else if (key == "app") {
      r.app = value;
      saw_app = !value.empty();
    } else if (key == "config") {
      r.config = value;
      saw_config = !value.empty();
    } else if (key == "scale") {
      if (!ParseScale(value, &r.scale)) {
        return Fail(err, "bad scale"), false;
      }
    } else if (key == "trace") {
      r.trace = value;
    } else if (key == "deadline_ms") {
      if (!ParseU64(value, &r.deadline_ms)) {
        return Fail(err, "bad deadline_ms"), false;
      }
    } else if (key == "watchdog_cycles") {
      if (!ParseU64(value, &r.watchdog_cycles)) {
        return Fail(err, "bad watchdog_cycles"), false;
      }
    } else if (key == "faults") {
      r.faults = value;
    } else if (key == "chaos") {
      r.chaos = value;
    } else if (key == "nocache") {
      r.nocache = (value != "0");
    } else if (key == "attempt") {
      std::uint64_t a = 0;
      if (!ParseU64(value, &a) || a == 0 || a > 1000) {
        return Fail(err, "bad attempt"), false;
      }
      r.attempt = static_cast<int>(a);
    }
    // Unknown keys: ignored (forward compatibility).
  }
  if (!saw_app) return Fail(err, "missing app"), false;
  if (!saw_config) return Fail(err, "missing config"), false;
  *out = std::move(r);
  return true;
}

std::string ExperimentResponse::Serialize() const {
  std::ostringstream os;
  os << "id " << id << '\n';
  os << "error " << robust::ToString(error) << '\n';
  if (!detail.empty()) os << "detail " << SanitizeValue(detail) << '\n';
  os << "attempts " << attempts << '\n';
  if (worker_crashes > 0) os << "worker_crashes " << worker_crashes << '\n';
  if (cached) os << "cached 1\n";
  if (retry_after_ms > 0) os << "retry_after_ms " << retry_after_ms << '\n';
  if (!result.empty()) os << "---\n" << result;
  return os.str();
}

bool ExperimentResponse::Parse(const std::string& text,
                               ExperimentResponse* out, std::string* err) {
  ExperimentResponse r;
  bool saw_error = false;

  // Split on the FIRST "---" line; everything after is the verbatim
  // result payload (which contains its own "---" separator).
  std::string headers = text;
  const std::string sep = "---\n";
  std::size_t cut = std::string::npos;
  if (text.rfind(sep, 0) == 0) {
    cut = 0;
  } else {
    const std::size_t pos = text.find("\n---\n");
    if (pos != std::string::npos) cut = pos + 1;
  }
  if (cut != std::string::npos) {
    headers = text.substr(0, cut);
    r.result = text.substr(cut + sep.size());
  }

  std::istringstream is(headers);
  std::string line;
  while (std::getline(is, line)) {
    std::string key;
    std::string value;
    if (!SplitField(line, &key, &value)) continue;
    if (key == "id") {
      if (!ParseU64(value, &r.id)) return Fail(err, "bad id"), false;
    } else if (key == "error") {
      if (!robust::ParseRunError(value, &r.error)) {
        return Fail(err, "unknown error kind '" + value + "'"), false;
      }
      saw_error = true;
    } else if (key == "detail") {
      r.detail = value;
    } else if (key == "attempts") {
      std::uint64_t a = 0;
      if (!ParseU64(value, &a) || a > 1000) {
        return Fail(err, "bad attempts"), false;
      }
      r.attempts = static_cast<int>(a);
    } else if (key == "worker_crashes") {
      std::uint64_t c = 0;
      if (!ParseU64(value, &c) || c > 1000000) {
        return Fail(err, "bad worker_crashes"), false;
      }
      r.worker_crashes = static_cast<int>(c);
    } else if (key == "cached") {
      r.cached = (value != "0");
    } else if (key == "retry_after_ms") {
      if (!ParseU64(value, &r.retry_after_ms)) {
        return Fail(err, "bad retry_after_ms"), false;
      }
    }
  }
  if (!saw_error) return Fail(err, "missing error field"), false;
  *out = std::move(r);
  return true;
}

}  // namespace dlpsim::serve
