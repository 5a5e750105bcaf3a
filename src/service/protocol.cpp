#include "service/protocol.h"

#include <utility>

#include "common/error.h"

namespace hmpt::service {

namespace {

/// Fetch an optional string field, rejecting wrong kinds loudly.
std::string string_field(const JsonObject& obj, const std::string& key) {
  const Json* value = obj.find(key);
  if (value == nullptr) return {};
  if (value->kind() != Json::Kind::String)
    raise("field '" + key + "' must be a string");
  return value->as_string();
}

/// The request's fingerprint, empty when absent (allowed only where not
/// `required`); anything but 16 lowercase hex digits is a bad request.
std::string fingerprint_field(const JsonObject& obj, Op op, bool required) {
  const std::string fingerprint = string_field(obj, "fingerprint");
  if (fingerprint.empty() && required)
    raise(std::string("op '") + to_string(op) +
          "' requires a 'fingerprint' field");
  if (!fingerprint.empty() && !campaign::is_fingerprint(fingerprint))
    raise("field 'fingerprint' must be 16 lowercase hex digits");
  return fingerprint;
}

}  // namespace

const char* to_string(Op op) {
  switch (op) {
    case Op::Submit: return "submit";
    case Op::Status: return "status";
    case Op::Result: return "result";
    case Op::Watch: return "watch";
    case Op::Stats: return "stats";
    case Op::Cancel: return "cancel";
    case Op::Drain: return "drain";
    case Op::Shutdown: return "shutdown";
    case Op::Ping: return "ping";
  }
  return "?";
}

std::optional<Op> parse_op(const std::string& text) {
  for (Op op : {Op::Submit, Op::Status, Op::Result, Op::Watch, Op::Stats,
                Op::Cancel, Op::Drain, Op::Shutdown, Op::Ping})
    if (text == to_string(op)) return op;
  return std::nullopt;
}

Request parse_request(const std::string& line) {
  Json doc;
  try {
    doc = Json::parse(line);
  } catch (const std::exception& e) {
    raise(std::string("invalid JSON: ") + e.what());
  }
  if (doc.kind() != Json::Kind::Object)
    raise("request must be a JSON object");
  const JsonObject& obj = doc.as_object();

  const Json* op_value = obj.find("op");
  if (op_value == nullptr) raise("request is missing the 'op' field");
  if (op_value->kind() != Json::Kind::String)
    raise("field 'op' must be a string");
  const auto op = parse_op(op_value->as_string());
  if (!op.has_value()) raise("unknown op: '" + op_value->as_string() + "'");

  Request request;
  request.op = *op;
  switch (*op) {
    case Op::Submit: {
      const Json* scenario = obj.find("scenario");
      const std::string campaign_text = string_field(obj, "campaign");
      if ((scenario != nullptr) == !campaign_text.empty())
        raise("submit requires exactly one of 'scenario' or 'campaign'");
      if (scenario != nullptr) {
        try {
          request.scenario = campaign::Scenario::from_json(*scenario);
        } catch (const std::exception& e) {
          raise(std::string("bad scenario: ") + e.what());
        }
      } else {
        request.campaign_text = campaign_text;
      }
      const Json* priority = obj.find("priority");
      if (priority != nullptr) {
        if (priority->kind() != Json::Kind::Number)
          raise("field 'priority' must be a number");
        request.priority = priority->as_int();
      }
      const Json* deadline = obj.find("deadline_s");
      if (deadline != nullptr) {
        if (deadline->kind() != Json::Kind::Number)
          raise("field 'deadline_s' must be a number");
        if (deadline->as_number() <= 0.0)
          raise("field 'deadline_s' must be > 0");
        request.deadline_s = deadline->as_number();
      }
      const Json* attempts = obj.find("attempts");
      if (attempts != nullptr) {
        if (attempts->kind() != Json::Kind::Number)
          raise("field 'attempts' must be a number");
        request.attempts = attempts->as_int();
        if (request.attempts < 1) raise("field 'attempts' must be >= 1");
      }
      break;
    }
    case Op::Status:
      request.fingerprint = fingerprint_field(obj, *op, /*required=*/false);
      break;
    case Op::Result: {
      request.fingerprint = fingerprint_field(obj, *op, /*required=*/true);
      const Json* wait = obj.find("wait");
      if (wait != nullptr) {
        if (wait->kind() != Json::Kind::Bool)
          raise("field 'wait' must be a boolean");
        request.wait = wait->as_bool();
      }
      break;
    }
    case Op::Cancel:
      request.fingerprint = fingerprint_field(obj, *op, /*required=*/true);
      break;
    case Op::Watch:
    case Op::Stats:
    case Op::Drain:
    case Op::Shutdown:
    case Op::Ping:
      break;
  }
  return request;
}

std::string Request::to_line() const {
  JsonObject obj;
  obj["op"] = Json(to_string(op));
  switch (op) {
    case Op::Submit:
      if (scenario.has_value())
        obj["scenario"] = scenario->to_json();
      else
        obj["campaign"] = Json(campaign_text);
      if (priority != 0) obj["priority"] = Json(priority);
      if (deadline_s > 0.0) obj["deadline_s"] = Json(deadline_s);
      if (attempts > 0) obj["attempts"] = Json(attempts);
      break;
    case Op::Status:
      if (!fingerprint.empty()) obj["fingerprint"] = Json(fingerprint);
      break;
    case Op::Result:
      obj["fingerprint"] = Json(fingerprint);
      if (wait) obj["wait"] = Json(true);
      break;
    case Op::Cancel:
      obj["fingerprint"] = Json(fingerprint);
      break;
    case Op::Watch:
    case Op::Stats:
    case Op::Drain:
    case Op::Shutdown:
    case Op::Ping:
      break;
  }
  return Json(std::move(obj)).dump(-1) + "\n";
}

std::string ok_line(Op op, JsonObject fields) {
  JsonObject obj;
  obj["ok"] = Json(true);
  obj["op"] = Json(to_string(op));
  for (auto& [key, value] : fields) obj[key] = std::move(value);
  return Json(std::move(obj)).dump(-1) + "\n";
}

std::string error_line(const std::string& error,
                       const std::string& op_text, JsonObject fields) {
  JsonObject obj;
  obj["ok"] = Json(false);
  obj["op"] = Json(op_text);
  obj["error"] = Json(error);
  for (auto& [key, value] : fields) obj[key] = std::move(value);
  return Json(std::move(obj)).dump(-1) + "\n";
}

std::string job_event_line(const std::string& fingerprint,
                           const std::string& label,
                           const std::string& state, double seconds,
                           JsonObject extra) {
  JsonObject obj;
  obj["event"] = Json("job");
  obj["fingerprint"] = Json(fingerprint);
  obj["label"] = Json(label);
  obj["state"] = Json(state);
  obj["seconds"] = Json(seconds);
  for (auto& [key, value] : extra) obj[key] = std::move(value);
  return Json(std::move(obj)).dump(-1) + "\n";
}

std::string event_line(const std::string& name) {
  JsonObject obj;
  obj["event"] = Json(name);
  return Json(std::move(obj)).dump(-1) + "\n";
}

ServerMessage parse_server_message(const std::string& line) {
  Json doc;
  try {
    doc = Json::parse(line);
  } catch (const std::exception& e) {
    raise(std::string("invalid server JSON: ") + e.what());
  }
  if (doc.kind() != Json::Kind::Object)
    raise("server message must be a JSON object");
  const JsonObject& obj = doc.as_object();

  ServerMessage message;
  if (const Json* event = obj.find("event")) {
    message.is_event = true;
    message.event = event->as_string();
  } else if (const Json* ok = obj.find("ok")) {
    message.ok = ok->as_bool();
    message.op = string_field(obj, "op");
    message.error = string_field(obj, "error");
  } else {
    raise("server message has neither 'event' nor 'ok'");
  }
  message.body = std::move(doc);
  return message;
}

}  // namespace hmpt::service
