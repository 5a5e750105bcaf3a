// Tests for the hmptd NDJSON protocol: request round trips through the
// codec, response/event builders as the client parses them, and the
// malformed-input fuzz the daemon's "never crash on bad bytes" promise
// rests on. The LineReader's oversized-line resync is covered over a real
// socketpair.
#include <gtest/gtest.h>

#include <sys/socket.h>
#include <unistd.h>

#include <string>
#include <utility>
#include <vector>

#include "campaign/workload_registry.h"
#include "common/error.h"
#include "service/protocol.h"
#include "service/socket.h"

namespace hmpt::service {
namespace {

campaign::Scenario test_scenario() {
  campaign::Scenario s;
  s.workload = campaign::parse_workload_spec("stream:array_gb=2");
  s.platform = "xeon-max";
  s.strategy = "estimator";
  s.repetitions = 2;
  return s;
}

// ------------------------------------------------------------ round trips

TEST(ProtocolTest, SubmitScenarioRoundTrips) {
  Request request;
  request.op = Op::Submit;
  request.scenario = test_scenario();
  request.priority = 7;

  const auto parsed = parse_request(request.to_line());
  EXPECT_EQ(parsed.op, Op::Submit);
  ASSERT_TRUE(parsed.scenario.has_value());
  EXPECT_EQ(parsed.scenario->fingerprint(),
            test_scenario().fingerprint());
  EXPECT_EQ(parsed.priority, 7);
  EXPECT_TRUE(parsed.campaign_text.empty());
}

TEST(ProtocolTest, IntegerFieldsRejectFractionsAndOverflow) {
  // Every integer read off the socket is range-checked before it is
  // converted: a fraction or a magnitude beyond int is a malformed
  // request, never a truncation or an undefined conversion.
  Request request;
  request.op = Op::Submit;
  request.scenario = test_scenario();
  request.priority = 7;
  request.attempts = 2;
  const std::string line = request.to_line();
  const auto with = [&](const std::string& from, const std::string& to) {
    std::string text = line;
    const auto at = text.find(from);
    EXPECT_NE(at, std::string::npos) << from;
    if (at != std::string::npos) text.replace(at, from.size(), to);
    return text;
  };
  for (const std::string& bad :
       {with("\"priority\":7", "\"priority\":1e300"),
        with("\"priority\":7", "\"priority\":2.5"),
        with("\"attempts\":2", "\"attempts\":-1e300"),
        with("\"repetitions\":2", "\"repetitions\":1e19"),
        with("\"tiers\":0", "\"tiers\":0.5")})
    EXPECT_THROW(parse_request(bad), Error) << bad;
  EXPECT_EQ(parse_request(line).priority, 7);
}

TEST(ProtocolTest, SubmitRejectsScenariosThatCanNeverRun) {
  // The ranges a campaign file is held to (Scenario::validate) hold on
  // the socket too: each out-of-range field is a `bad scenario` reply,
  // never a job that fails (and retries) once it runs.
  Request request;
  request.op = Op::Submit;
  request.scenario = test_scenario();
  request.scenario->tier_budgets_gb = {{1, 4.0}};
  const std::string line = request.to_line();
  ASSERT_NO_THROW(parse_request(line));
  const auto with = [&](const std::string& from, const std::string& to) {
    std::string text = line;
    const auto at = text.find(from);
    EXPECT_NE(at, std::string::npos) << from;
    if (at != std::string::npos) text.replace(at, from.size(), to);
    return text;
  };
  const std::pair<std::string, std::string> cases[] = {
      {with("\"tiers\":0", "\"tiers\":1"), "tiers must be"},
      {with("\"budget_gb\":0", "\"budget_gb\":-1"), "budget-gb must be"},
      {with("\"repetitions\":2", "\"repetitions\":0"), "reps must be"},
      {with("\"top_k\":3", "\"top_k\":-3"), "top-k must be"},
      {with("\"tier\":1", "\"tier\":0"), "tier-budget-gb needs"},
      {with("\"gb\":4", "\"gb\":-4"), "tier-budget-gb needs"},
  };
  for (const auto& [bad, message] : cases) {
    try {
      parse_request(bad);
      ADD_FAILURE() << "accepted: " << bad;
    } catch (const Error& e) {
      const std::string what = e.what();
      EXPECT_EQ(what.rfind("bad scenario: ", 0), 0u) << what;
      EXPECT_NE(what.find(message), std::string::npos) << what;
    }
  }
}

TEST(ProtocolTest, SubmitRetryFieldsRoundTrip) {
  // Protocol v2: per-job deadline and attempt budget ride the submit.
  Request request;
  request.op = Op::Submit;
  request.scenario = test_scenario();
  request.deadline_s = 12.5;
  request.attempts = 3;

  const auto parsed = parse_request(request.to_line());
  EXPECT_DOUBLE_EQ(parsed.deadline_s, 12.5);
  EXPECT_EQ(parsed.attempts, 3);

  // Unset fields stay off the wire and parse back to their defaults.
  Request plain;
  plain.op = Op::Submit;
  plain.scenario = test_scenario();
  const auto line = plain.to_line();
  EXPECT_EQ(line.find("deadline_s"), std::string::npos);
  EXPECT_EQ(line.find("attempts"), std::string::npos);
  const auto defaults = parse_request(line);
  EXPECT_LT(defaults.deadline_s, 0.0);
  EXPECT_EQ(defaults.attempts, 0);
}

TEST(ProtocolTest, SubmitCampaignRoundTrips) {
  Request request;
  request.op = Op::Submit;
  request.campaign_text = "workload mg\nstrategy estimator\n";

  const auto parsed = parse_request(request.to_line());
  EXPECT_EQ(parsed.op, Op::Submit);
  EXPECT_FALSE(parsed.scenario.has_value());
  EXPECT_EQ(parsed.campaign_text, request.campaign_text);
}

TEST(ProtocolTest, EveryFingerprintOpRoundTrips) {
  for (const Op op : {Op::Status, Op::Result, Op::Cancel}) {
    Request request;
    request.op = op;
    request.fingerprint = "0123456789abcdef";
    if (op == Op::Result) request.wait = true;

    const auto parsed = parse_request(request.to_line());
    EXPECT_EQ(parsed.op, op);
    EXPECT_EQ(parsed.fingerprint, "0123456789abcdef");
    EXPECT_EQ(parsed.wait, op == Op::Result);
  }
}

TEST(ProtocolTest, BareOpsRoundTrip) {
  for (const Op op :
       {Op::Status, Op::Watch, Op::Stats, Op::Drain, Op::Shutdown,
        Op::Ping}) {
    Request request;
    request.op = op;
    const auto parsed = parse_request(request.to_line());
    EXPECT_EQ(parsed.op, op);
    EXPECT_TRUE(parsed.fingerprint.empty());
  }
}

TEST(ProtocolTest, OpSpellingsRoundTrip) {
  for (const Op op :
       {Op::Submit, Op::Status, Op::Result, Op::Watch, Op::Stats,
        Op::Cancel, Op::Drain, Op::Shutdown, Op::Ping}) {
    const auto back = parse_op(to_string(op));
    ASSERT_TRUE(back.has_value()) << to_string(op);
    EXPECT_EQ(*back, op);
  }
  EXPECT_EQ(parse_op("frobnicate"), std::nullopt);
}

// --------------------------------------------------- responses and events

TEST(ProtocolTest, OkLineParsesAsSuccessfulResponse) {
  JsonObject fields;
  fields["queued"] = Json(3);
  const auto message = parse_server_message(ok_line(Op::Status, fields));
  EXPECT_FALSE(message.is_event);
  EXPECT_TRUE(message.ok);
  EXPECT_EQ(message.op, "status");
  EXPECT_DOUBLE_EQ(message.body.at("queued").as_number(), 3.0);
}

TEST(ProtocolTest, ErrorLineCarriesMessageAndFields) {
  JsonObject fields;
  fields["state"] = Json("running");
  const auto message =
      parse_server_message(error_line("pending: abc", "result", fields));
  EXPECT_FALSE(message.is_event);
  EXPECT_FALSE(message.ok);
  EXPECT_EQ(message.op, "result");
  EXPECT_EQ(message.error, "pending: abc");
  EXPECT_EQ(message.body.at("state").as_string(), "running");
}

TEST(ProtocolTest, ErrorLineForUnparsedRequestUsesPlaceholderOp) {
  const auto message = parse_server_message(error_line("invalid JSON"));
  EXPECT_FALSE(message.ok);
  EXPECT_EQ(message.op, "?");
}

TEST(ProtocolTest, JobEventRoundTrips) {
  JsonObject extra;
  extra["speedup"] = Json(2.5);
  const auto message = parse_server_message(
      job_event_line("deadbeefdeadbeef", "mg/xeon-max/exhaustive", "done",
                     1.25, extra));
  EXPECT_TRUE(message.is_event);
  EXPECT_EQ(message.event, "job");
  EXPECT_EQ(message.body.at("fingerprint").as_string(),
            "deadbeefdeadbeef");
  EXPECT_EQ(message.body.at("state").as_string(), "done");
  EXPECT_DOUBLE_EQ(message.body.at("seconds").as_number(), 1.25);
  EXPECT_DOUBLE_EQ(message.body.at("speedup").as_number(), 2.5);
}

TEST(ProtocolTest, LifecycleEventRoundTrips) {
  const auto message = parse_server_message(event_line("drained"));
  EXPECT_TRUE(message.is_event);
  EXPECT_EQ(message.event, "drained");
}

TEST(ProtocolTest, EveryLineIsSingleLineTerminated) {
  Request request;
  request.op = Op::Submit;
  request.scenario = test_scenario();
  for (const std::string& line :
       {request.to_line(), ok_line(Op::Ping), error_line("boom", "submit"),
        job_event_line("ab", "l", "done", 0.1), event_line("shutdown")}) {
    ASSERT_FALSE(line.empty());
    EXPECT_EQ(line.back(), '\n');
    EXPECT_EQ(line.find('\n'), line.size() - 1) << line;
  }
}

// ------------------------------------------------------- malformed input

TEST(ProtocolFuzzTest, MalformedRequestsThrowStructuredErrors) {
  const std::vector<std::string> bad = {
      "",                                     // empty line
      "{\"op\":\"submit\"",                   // truncated JSON
      "not json at all",                      // garbage
      "42",                                   // not an object
      "[]",                                   // not an object
      "{}",                                   // missing op
      "{\"op\":7}",                           // op of the wrong kind
      "{\"op\":\"frobnicate\"}",              // unknown op
      "{\"op\":\"submit\"}",                  // submit without payload
      "{\"op\":\"submit\",\"scenario\":{},\"campaign\":\"x\"}",  // both
      "{\"op\":\"submit\",\"scenario\":[]}",  // scenario wrong kind
      "{\"op\":\"submit\",\"campaign\":12}",  // campaign wrong kind
      "{\"op\":\"submit\",\"scenario\":{\"workload\":\"mg\"},"
      "\"priority\":\"high\"}",               // priority wrong kind
      "{\"op\":\"result\"}",                  // result without fingerprint
      "{\"op\":\"cancel\"}",                  // cancel without fingerprint
      "{\"op\":\"result\",\"fingerprint\":7}",   // fingerprint wrong kind
      "{\"op\":\"result\",\"fingerprint\":\"0123456789abcdef\","
      "\"wait\":\"yes\"}",                      // wait wrong kind
      "{\"op\":\"submit\",\"scenario\":{\"workload\":\"mg\"},"
      "\"deadline_s\":0}",                    // deadline must be > 0
      "{\"op\":\"submit\",\"scenario\":{\"workload\":\"mg\"},"
      "\"deadline_s\":\"soon\"}",             // deadline wrong kind
      "{\"op\":\"submit\",\"scenario\":{\"workload\":\"mg\"},"
      "\"attempts\":0}",                      // attempts must be >= 1
      "{\"op\":\"submit\",\"scenario\":{\"workload\":\"mg\"},"
      "\"attempts\":\"many\"}",               // attempts wrong kind
  };
  for (const auto& line : bad)
    EXPECT_THROW(parse_request(line), Error) << line;
}

TEST(ProtocolFuzzTest, FingerprintsAreSixteenLowercaseHexDigits) {
  // The daemon turns a fingerprint into a store key; anything but the one
  // spelling is a bad request, never a path.
  for (const std::string op : {"status", "result", "cancel"}) {
    for (const std::string fingerprint :
         {"../x", "../../victim", "0123456789ABCDEF", "0123456789abcde",
          "0123456789abcdef0", "0123456789abcdeg"}) {
      const std::string line = "{\"op\":\"" + op +
                               "\",\"fingerprint\":\"" + fingerprint +
                               "\"}";
      EXPECT_THROW(parse_request(line), Error) << line;
    }
    const auto parsed = parse_request(
        "{\"op\":\"" + op + "\",\"fingerprint\":\"0123456789abcdef\"}");
    EXPECT_EQ(parsed.fingerprint, "0123456789abcdef");
  }
}

TEST(ProtocolFuzzTest, MalformedServerLinesThrow) {
  for (const std::string& line :
       {std::string("{"), std::string("null"),
        std::string("{\"neither\":true}")})
    EXPECT_THROW(parse_server_message(line), Error) << line;
}

// ------------------------------------------------------------ line reader

/// A connected socketpair with RAII cleanup for LineReader tests.
struct SocketPair {
  SocketPair() {
    int fds[2];
    HMPT_REQUIRE(::socketpair(AF_UNIX, SOCK_STREAM, 0, fds) == 0,
                 "socketpair failed");
    a = Socket(fds[0]);
    b = Socket(fds[1]);
  }
  Socket a, b;
};

TEST(LineReaderTest, SplitsLinesAcrossArbitraryWrites) {
  SocketPair pair;
  ASSERT_TRUE(pair.a.send_all("first li"));
  ASSERT_TRUE(pair.a.send_all("ne\nsecond line\npartial"));
  pair.a.close();  // EOF after an unterminated tail

  LineReader reader(pair.b.fd());
  std::string line;
  ASSERT_EQ(reader.next(line), LineReader::Status::Line);
  EXPECT_EQ(line, "first line");
  ASSERT_EQ(reader.next(line), LineReader::Status::Line);
  EXPECT_EQ(line, "second line");
  ASSERT_EQ(reader.next(line), LineReader::Status::Line);
  EXPECT_EQ(line, "partial");
  EXPECT_EQ(reader.next(line), LineReader::Status::Eof);
}

TEST(LineReaderTest, OversizedLineIsDiscardedAndStreamResyncs) {
  SocketPair pair;
  const std::string huge(256, 'x');
  ASSERT_TRUE(pair.a.send_all(huge + "\n{\"op\":\"ping\"}\n"));
  pair.a.close();

  LineReader reader(pair.b.fd(), /*max_line=*/64);
  std::string line;
  ASSERT_EQ(reader.next(line), LineReader::Status::Oversized);
  // The stream stays usable: the next well-formed line parses.
  ASSERT_EQ(reader.next(line), LineReader::Status::Line);
  EXPECT_EQ(parse_request(line).op, Op::Ping);
  EXPECT_EQ(reader.next(line), LineReader::Status::Eof);
}

TEST(LineReaderTest, OversizedUnterminatedTailReportsOversized) {
  SocketPair pair;
  ASSERT_TRUE(pair.a.send_all(std::string(128, 'y')));  // no newline
  pair.a.close();

  LineReader reader(pair.b.fd(), /*max_line=*/64);
  std::string line;
  ASSERT_EQ(reader.next(line), LineReader::Status::Oversized);
  EXPECT_EQ(reader.next(line), LineReader::Status::Eof);
}

}  // namespace
}  // namespace hmpt::service
