// Request/response wire grammar: round trips, payload separation,
// sanitization and hostile-input rejection.
#include "serve/request.h"

#include <gtest/gtest.h>

#include "workloads/registry.h"

namespace dlpsim::serve {
namespace {

TEST(Request, RoundTripsEveryField) {
  ExperimentRequest r;
  r.id = 42;
  r.app = "BFS";
  r.config = "dlp";
  r.scale = 0.03749999;  // 6 significant digits would print 0.0375
  r.deadline_ms = 1500;
  r.watchdog_cycles = 200000;
  r.faults = "seed=7,count=16";
  r.chaos = "crash:2";
  r.nocache = true;
  r.attempt = 3;

  ExperimentRequest got;
  std::string err;
  ASSERT_TRUE(ExperimentRequest::Parse(r.Serialize(), &got, &err)) << err;
  EXPECT_EQ(got.id, 42u);
  EXPECT_EQ(got.app, "BFS");
  EXPECT_EQ(got.config, "dlp");
  EXPECT_EQ(got.scale, 0.03749999);
  EXPECT_EQ(got.deadline_ms, 1500u);
  EXPECT_EQ(got.watchdog_cycles, 200000u);
  EXPECT_EQ(got.faults, "seed=7,count=16");
  EXPECT_EQ(got.chaos, "crash:2");
  EXPECT_TRUE(got.nocache);
  EXPECT_EQ(got.attempt, 3);
}

TEST(Request, DefaultsSurviveRoundTrip) {
  ExperimentRequest r;
  r.app = "NW";
  r.config = "base";
  ExperimentRequest got;
  ASSERT_TRUE(ExperimentRequest::Parse(r.Serialize(), &got));
  EXPECT_EQ(got.deadline_ms, 0u);
  EXPECT_EQ(got.watchdog_cycles, 0u);
  EXPECT_TRUE(got.faults.empty());
  EXPECT_TRUE(got.chaos.empty());
  EXPECT_FALSE(got.nocache);
  EXPECT_EQ(got.attempt, 1);
}

TEST(Request, RejectsMissingOrHostileFields) {
  ExperimentRequest got;
  std::string err;
  EXPECT_FALSE(ExperimentRequest::Parse("config dlp\n", &got, &err));
  EXPECT_EQ(err, "missing app");
  EXPECT_FALSE(ExperimentRequest::Parse("app BFS\n", &got, &err));
  EXPECT_EQ(err, "missing config");
  EXPECT_FALSE(
      ExperimentRequest::Parse("app B\nconfig c\nscale -1\n", &got, &err));
  EXPECT_FALSE(
      ExperimentRequest::Parse("app B\nconfig c\nscale zero\n", &got, &err));
  // Not finite, padded, hexadecimal or overflowing: a NaN scale would
  // pass MakeWorkload's `scale <= 0` guard and key the result cache.
  // Finite but past kMaxScale: MakeWorkload would throw in the worker.
  for (const char* scale :
       {"nan", "inf", " 0.5", "0x1p-3", "1e999", "1e12", "21474837"}) {
    err.clear();
    EXPECT_FALSE(ExperimentRequest::Parse(
        std::string("app B\nconfig c\nscale ") + scale + "\n", &got, &err))
        << "scale '" << scale << "'";
    EXPECT_EQ(err, "bad scale") << "scale '" << scale << "'";
  }
  EXPECT_FALSE(
      ExperimentRequest::Parse("app B\nconfig c\nattempt 0\n", &got, &err));
  EXPECT_FALSE(
      ExperimentRequest::Parse("app B\nconfig c\nattempt 1001\n", &got, &err));
  EXPECT_FALSE(
      ExperimentRequest::Parse("app B\nconfig c\nid 12x\n", &got, &err));
  // A sign is rejected, not wrapped to 2^64 - 1.
  EXPECT_FALSE(ExperimentRequest::Parse("app B\nconfig c\ndeadline_ms -1\n",
                                        &got, &err));
  EXPECT_EQ(err, "bad deadline_ms");
}

TEST(Request, AcceptsTheLargestScaleMakeWorkloadBuilds) {
  ExperimentRequest got;
  std::string err;
  ASSERT_TRUE(ExperimentRequest::Parse("app B\nconfig c\nscale 21474836\n",
                                       &got, &err))
      << err;
  EXPECT_EQ(got.scale, kMaxScale);
}

TEST(Request, UnknownKeysAreIgnoredForForwardCompat) {
  ExperimentRequest got;
  ASSERT_TRUE(ExperimentRequest::Parse(
      "app BFS\nconfig dlp\nfuture_knob on\n\n", &got));
  EXPECT_EQ(got.app, "BFS");
}

TEST(Request, SanitizeStripsLineBreaks) {
  EXPECT_EQ(SanitizeValue("a\nb\rc"), "a b c");
  ExperimentRequest r;
  r.app = "BFS\ninjected key";
  r.config = "dlp";
  ExperimentRequest got;
  ASSERT_TRUE(ExperimentRequest::Parse(r.Serialize(), &got));
  EXPECT_EQ(got.app, "BFS injected key");  // no field injection
}

TEST(Response, RoundTripsOkWithResultPayload) {
  ExperimentResponse r;
  r.id = 9;
  r.error = robust::RunError::kNone;
  r.attempts = 1;
  // The real payload format embeds its own "---" separator between
  // metrics and profile text; the wire split must only use the FIRST.
  r.result = "ipc 1.5\nmisses 10\n---\nrdd 1 2 3\n";

  ExperimentResponse got;
  std::string err;
  ASSERT_TRUE(ExperimentResponse::Parse(r.Serialize(), &got, &err)) << err;
  EXPECT_TRUE(got.ok());
  EXPECT_EQ(got.id, 9u);
  EXPECT_EQ(got.result, "ipc 1.5\nmisses 10\n---\nrdd 1 2 3\n");
}

TEST(Response, RoundTripsTypedFailure) {
  ExperimentResponse r;
  r.id = 3;
  r.error = robust::RunError::kWorkerCrash;
  r.detail = "signal 9 after 3 attempts";
  r.attempts = 3;
  r.worker_crashes = 3;

  ExperimentResponse got;
  ASSERT_TRUE(ExperimentResponse::Parse(r.Serialize(), &got));
  EXPECT_FALSE(got.ok());
  EXPECT_EQ(got.error, robust::RunError::kWorkerCrash);
  EXPECT_EQ(got.detail, "signal 9 after 3 attempts");
  EXPECT_EQ(got.attempts, 3);
  EXPECT_EQ(got.worker_crashes, 3);
  EXPECT_TRUE(got.result.empty());
}

TEST(Response, RoundTripsRejection) {
  ExperimentResponse r;
  r.id = 5;
  r.error = robust::RunError::kQueueRejected;
  r.detail = "admission queue full (64)";
  r.retry_after_ms = 50;

  ExperimentResponse got;
  ASSERT_TRUE(ExperimentResponse::Parse(r.Serialize(), &got));
  EXPECT_EQ(got.error, robust::RunError::kQueueRejected);
  EXPECT_EQ(got.retry_after_ms, 50u);
}

TEST(Response, RejectsUnknownErrorKindAndMissingError) {
  ExperimentResponse got;
  std::string err;
  EXPECT_FALSE(ExperimentResponse::Parse("id 1\nerror not_a_kind\n", &got,
                                         &err));
  EXPECT_NE(err.find("unknown error kind"), std::string::npos);
  EXPECT_FALSE(ExperimentResponse::Parse("id 1\nattempts 1\n", &got, &err));
  EXPECT_EQ(err, "missing error field");
}

TEST(Response, CachedFlagRoundTrips) {
  ExperimentResponse r;
  r.error = robust::RunError::kNone;
  r.cached = true;
  r.result = "x\n";
  ExperimentResponse got;
  ASSERT_TRUE(ExperimentResponse::Parse(r.Serialize(), &got));
  EXPECT_TRUE(got.cached);
}

TEST(Response, PayloadStartingWithSeparatorLine) {
  // A response whose serialized text BEGINS with "---" (no headers)
  // must not crash the parser; it fails on the missing error field.
  ExperimentResponse got;
  EXPECT_FALSE(ExperimentResponse::Parse("---\npayload\n", &got));
}

}  // namespace
}  // namespace dlpsim::serve
