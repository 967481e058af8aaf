#include "fault/fault_plan.h"

#include <algorithm>
#include <cmath>
#include <sstream>
#include <stdexcept>
#include <utility>

namespace rave::fault {

namespace {

bool NeedsMagnitude(FaultKind kind) {
  return kind == FaultKind::kDuplication || kind == FaultKind::kReorder;
}

bool NeedsDelay(FaultKind kind) {
  return kind == FaultKind::kDelaySpike || kind == FaultKind::kReorder;
}

bool NeedsRate(FaultKind kind) {
  return kind == FaultKind::kHandover || kind == FaultKind::kRenegotiate;
}

void ValidateLossModel(const net::LossModel& loss) {
  if (!std::isfinite(loss.random_loss) || loss.random_loss < 0.0 ||
      loss.random_loss > 1.0) {
    throw std::invalid_argument(
        "FaultPlan: handover loss probability outside [0,1]");
  }
  if (!std::isfinite(loss.gilbert_bad_loss) || loss.gilbert_bad_loss < 0.0 ||
      loss.gilbert_bad_loss > 1.0) {
    throw std::invalid_argument(
        "FaultPlan: handover Gilbert bad-state loss outside [0,1]");
  }
  if (loss.gilbert_enabled && loss.gilbert_step <= TimeDelta::Zero()) {
    throw std::invalid_argument(
        "FaultPlan: handover Gilbert step must be positive");
  }
}

void ValidateEvent(const FaultEvent& event) {
  if (event.start < Timestamp::Zero()) {
    throw std::invalid_argument("FaultPlan: negative start time for " +
                                ToString(event.kind));
  }
  if (event.duration <= TimeDelta::Zero()) {
    throw std::invalid_argument("FaultPlan: non-positive duration for " +
                                ToString(event.kind));
  }
  if (NeedsMagnitude(event.kind) &&
      (!std::isfinite(event.magnitude) || event.magnitude < 0.0 ||
       event.magnitude > 1.0)) {
    throw std::invalid_argument("FaultPlan: probability outside [0,1] for " +
                                ToString(event.kind));
  }
  if (NeedsDelay(event.kind) && event.delay <= TimeDelta::Zero()) {
    throw std::invalid_argument("FaultPlan: non-positive delay for " +
                                ToString(event.kind));
  }
  if (NeedsRate(event.kind) && event.rate <= DataRate::Zero()) {
    throw std::invalid_argument("FaultPlan: non-positive rate for " +
                                ToString(event.kind));
  }
  if (event.kind == FaultKind::kHandover) {
    if (event.propagation < TimeDelta::Zero()) {
      throw std::invalid_argument(
          "FaultPlan: negative propagation for handover");
    }
    if (event.loss) ValidateLossModel(*event.loss);
  }
}

}  // namespace

std::string ToString(FaultKind kind) {
  switch (kind) {
    case FaultKind::kLinkOutage:
      return "outage";
    case FaultKind::kFeedbackBlackhole:
      return "blackhole";
    case FaultKind::kDelaySpike:
      return "spike";
    case FaultKind::kDuplication:
      return "dup";
    case FaultKind::kReorder:
      return "reorder";
    case FaultKind::kHandover:
      return "handover";
    case FaultKind::kRenegotiate:
      return "reneg";
  }
  return "unknown";
}

FaultPlan::FaultPlan(std::vector<FaultEvent> events) {
  for (FaultEvent& event : events) Append(std::move(event));
}

void FaultPlan::Append(FaultEvent event) {
  ValidateEvent(event);
  for (const FaultEvent& other : events_) {
    if (other.kind != event.kind) continue;
    const Timestamp a_end = other.start + other.duration;
    const Timestamp b_end = event.start + event.duration;
    if (event.start < a_end && other.start < b_end) {
      throw std::invalid_argument(
          "FaultPlan: overlapping " + fault::ToString(event.kind) +
          " windows (revert order would be ambiguous)");
    }
  }
  events_.push_back(event);
}

Timestamp FaultPlan::LastClearTime() const {
  Timestamp last = Timestamp::Zero();
  for (const FaultEvent& event : events_) {
    last = std::max(last, event.start + event.duration);
  }
  return last;
}

FaultPlan& FaultPlan::Outage(Timestamp start, TimeDelta duration) {
  Append({.kind = FaultKind::kLinkOutage,
          .start = start,
          .duration = duration,
          .loss = std::nullopt});
  return *this;
}

FaultPlan& FaultPlan::FeedbackBlackhole(Timestamp start, TimeDelta duration) {
  Append({.kind = FaultKind::kFeedbackBlackhole,
          .start = start,
          .duration = duration,
          .loss = std::nullopt});
  return *this;
}

FaultPlan& FaultPlan::DelaySpike(Timestamp start, TimeDelta duration,
                                 TimeDelta extra) {
  Append({.kind = FaultKind::kDelaySpike,
          .start = start,
          .duration = duration,
          .delay = extra,
          .loss = std::nullopt});
  return *this;
}

FaultPlan& FaultPlan::DuplicationBurst(Timestamp start, TimeDelta duration,
                                       double probability) {
  Append({.kind = FaultKind::kDuplication,
          .start = start,
          .duration = duration,
          .magnitude = probability,
          .loss = std::nullopt});
  return *this;
}

FaultPlan& FaultPlan::ReorderBurst(Timestamp start, TimeDelta duration,
                                   double probability, TimeDelta max_extra) {
  Append({.kind = FaultKind::kReorder,
          .start = start,
          .duration = duration,
          .magnitude = probability,
          .delay = max_extra,
          .loss = std::nullopt});
  return *this;
}

FaultPlan& FaultPlan::Handover(Timestamp start, TimeDelta gap,
                               DataRate new_rate, TimeDelta new_propagation,
                               std::optional<net::LossModel> new_loss) {
  Append({.kind = FaultKind::kHandover,
          .start = start,
          .duration = gap,
          .rate = new_rate,
          .propagation = new_propagation,
          .loss = std::move(new_loss)});
  return *this;
}

FaultPlan& FaultPlan::Renegotiate(Timestamp start, TimeDelta duration,
                                  DataRate rate) {
  Append({.kind = FaultKind::kRenegotiate,
          .start = start,
          .duration = duration,
          .rate = rate,
          .loss = std::nullopt});
  return *this;
}

std::string FaultPlan::ToString() const {
  std::ostringstream out;
  for (size_t i = 0; i < events_.size(); ++i) {
    const FaultEvent& e = events_[i];
    if (i > 0) out << ", ";
    out << fault::ToString(e.kind) << '@' << e.start.seconds() << "s+"
        << e.duration.seconds() << 's';
    if (NeedsMagnitude(e.kind)) out << ':' << e.magnitude;
    if (NeedsDelay(e.kind)) out << ':' << e.delay.ms_float() << "ms";
    if (NeedsRate(e.kind)) out << ':' << e.rate.kbps() << "kbps";
    if (e.kind == FaultKind::kHandover) {
      out << ':' << e.propagation.ms_float() << "ms";
      if (e.loss) out << ":loss=" << e.loss->random_loss;
    }
  }
  return out.str();
}

namespace {

double ParseNumber(const std::string& text, const std::string& token) {
  try {
    size_t used = 0;
    const double value = std::stod(text, &used);
    if (used != text.size() || !std::isfinite(value)) {
      throw std::invalid_argument(text);
    }
    return value;
  } catch (const std::exception&) {
    throw std::invalid_argument("fault spec: bad number '" + text +
                                "' in token '" + token + "'");
  }
}

FaultEvent ParseToken(const std::string& token) {
  const auto at = token.find('@');
  if (at == std::string::npos) {
    throw std::invalid_argument(
        "fault spec: token '" + token +
        "' is not of the form kind@START+DUR[:P1[:P2]]");
  }
  const std::string kind_name = token.substr(0, at);

  // Split the remainder on ':' — the first piece is "START+DUR", the rest
  // are per-kind parameters.
  std::vector<std::string> pieces;
  const std::string tail = token.substr(at + 1);
  size_t pos = 0;
  while (true) {
    const auto colon = tail.find(':', pos);
    pieces.push_back(tail.substr(pos, colon - pos));
    if (colon == std::string::npos) break;
    pos = colon + 1;
  }
  const std::string& rest = pieces.front();
  const std::vector<std::string> params(pieces.begin() + 1, pieces.end());
  const auto plus = rest.find('+');
  if (plus == std::string::npos) {
    throw std::invalid_argument("fault spec: token '" + token +
                                "' is missing '+DURATION'");
  }
  const double start_s = ParseNumber(rest.substr(0, plus), token);
  const double dur_s = ParseNumber(rest.substr(plus + 1), token);

  FaultEvent event;
  event.start = Timestamp::Micros(static_cast<int64_t>(start_s * 1e6));
  event.duration = TimeDelta::Micros(static_cast<int64_t>(dur_s * 1e6));

  auto param = [&](size_t i) -> double {
    if (i >= params.size()) {
      throw std::invalid_argument("fault spec: token '" + token +
                                  "' is missing a :parameter");
    }
    return ParseNumber(params[i], token);
  };

  if (kind_name == "outage") {
    event.kind = FaultKind::kLinkOutage;
  } else if (kind_name == "blackhole") {
    event.kind = FaultKind::kFeedbackBlackhole;
  } else if (kind_name == "spike") {
    event.kind = FaultKind::kDelaySpike;
    event.delay = TimeDelta::Micros(static_cast<int64_t>(param(0) * 1e3));
  } else if (kind_name == "dup") {
    event.kind = FaultKind::kDuplication;
    event.magnitude = param(0);
  } else if (kind_name == "reorder") {
    event.kind = FaultKind::kReorder;
    event.magnitude = param(0);
    event.delay = TimeDelta::Micros(static_cast<int64_t>(param(1) * 1e3));
  } else if (kind_name == "handover") {
    // handover@T+GAP:RATE_KBPS:OWD_MS[:LOSS]
    event.kind = FaultKind::kHandover;
    event.rate = DataRate::KilobitsPerSec(static_cast<int64_t>(param(0)));
    event.propagation =
        TimeDelta::Micros(static_cast<int64_t>(param(1) * 1e3));
    if (params.size() > 2) {
      net::LossModel loss;
      loss.random_loss = param(2);
      event.loss = loss;
    }
  } else if (kind_name == "reneg") {
    // reneg@T+DUR:RATE_KBPS
    event.kind = FaultKind::kRenegotiate;
    event.rate = DataRate::KilobitsPerSec(static_cast<int64_t>(param(0)));
  } else {
    throw std::invalid_argument("fault spec: unknown fault kind '" +
                                kind_name + "' in token '" + token + "'");
  }
  return event;
}

}  // namespace

FaultPlan ParseFaultSpec(const std::string& spec) {
  // Every rejection — bad token, bad number, failed validation, overlapping
  // windows — is rethrown echoing the full spec string, so a user with six
  // comma-separated tokens sees which input produced the error.
  try {
    std::vector<FaultEvent> events;
    size_t pos = 0;
    while (pos <= spec.size()) {
      const auto comma = spec.find(',', pos);
      const std::string token = spec.substr(pos, comma - pos);
      if (!token.empty()) events.push_back(ParseToken(token));
      if (comma == std::string::npos) break;
      pos = comma + 1;
    }
    if (events.empty()) {
      throw std::invalid_argument("fault spec: no fault tokens");
    }
    return FaultPlan(std::move(events));
  } catch (const std::invalid_argument& error) {
    throw std::invalid_argument(std::string(error.what()) + " (in spec '" +
                                spec + "')");
  }
}

}  // namespace rave::fault
