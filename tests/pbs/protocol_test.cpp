#include "pbs/protocol.h"

#include <gtest/gtest.h>

namespace {

using namespace pbs;

JobSpec sample_spec() {
  JobSpec s;
  s.name = "climate-sim";
  s.user = "alice";
  s.nodes = 3;
  s.walltime = sim::minutes(30);
  s.run_time = sim::seconds(90);
  s.priority = -2;
  s.script = "#!/bin/sh\nmpirun ./climate\n";
  return s;
}

Job sample_job() {
  Job j;
  j.id = 17;
  j.spec = sample_spec();
  j.state = JobState::kRunning;
  j.submit_time = sim::Time{1000};
  j.start_time = sim::Time{2000};
  j.end_time = sim::Time{0};
  j.exit_code = 0;
  j.queue_rank = 4;
  j.exec_host = 9;
  return j;
}

TEST(PbsJob, SpecRoundTrip) {
  net::Writer w;
  encode_job_spec(w, sample_spec());
  JobSpec back = net::decode<JobSpec>(w.take());
  EXPECT_EQ(back.name, "climate-sim");
  EXPECT_EQ(back.user, "alice");
  EXPECT_EQ(back.nodes, 3u);
  EXPECT_EQ(back.walltime, sim::minutes(30));
  EXPECT_EQ(back.run_time, sim::seconds(90));
  EXPECT_EQ(back.priority, -2);
  EXPECT_EQ(back.script, sample_spec().script);
}

TEST(PbsJob, JobRoundTrip) {
  Job back = net::decode<Job>(net::encode(sample_job()));
  EXPECT_EQ(back.id, 17u);
  EXPECT_EQ(back.state, JobState::kRunning);
  EXPECT_EQ(back.queue_rank, 4u);
  EXPECT_EQ(back.exec_host, 9u);
  EXPECT_TRUE(back.active());
  EXPECT_FALSE(back.terminal());
}

TEST(PbsJob, StateHelpers) {
  EXPECT_EQ(state_letter(JobState::kQueued), 'Q');
  EXPECT_EQ(state_letter(JobState::kRunning), 'R');
  EXPECT_EQ(state_letter(JobState::kComplete), 'C');
  EXPECT_EQ(state_letter(JobState::kHeld), 'H');
  EXPECT_EQ(to_string(JobState::kExiting), "EXITING");
  EXPECT_EQ(job_id_string(12, "cluster"), "12.cluster");
}

TEST(PbsProtocol, SubmitRoundTrip) {
  sim::Payload buf = net::encode(SubmitRequest{sample_spec()});
  EXPECT_EQ(net::peek_tag<Op>(buf), Op::kSubmit);
  SubmitRequest back = net::decode<SubmitRequest>(buf);
  EXPECT_EQ(back.spec.name, "climate-sim");
}

TEST(PbsProtocol, AllSimpleRequestsRoundTrip) {
  EXPECT_EQ(net::decode<DeleteRequest>(net::encode(DeleteRequest{7})).job_id,
            7u);
  auto sig = net::decode<SignalRequest>(net::encode(SignalRequest{8, 9}));
  EXPECT_EQ(sig.job_id, 8u);
  EXPECT_EQ(sig.signal, 9);
  EXPECT_EQ(net::decode<HoldRequest>(net::encode(HoldRequest{3})).job_id, 3u);
  EXPECT_EQ(net::decode<ReleaseRequest>(net::encode(ReleaseRequest{4})).job_id,
            4u);
  StatRequest st = net::decode<StatRequest>(net::encode(StatRequest{5, false}));
  EXPECT_EQ(st.job_id, 5u);
  EXPECT_FALSE(st.include_complete);
}

TEST(PbsProtocol, MomMessagesRoundTrip) {
  MomLaunchRequest launch{sample_job(), 2};
  MomLaunchRequest lb = net::decode<MomLaunchRequest>(net::encode(launch));
  EXPECT_EQ(lb.job.id, 17u);
  EXPECT_EQ(lb.server_host, 2u);

  MomKillRequest kill{17, 2};
  MomKillRequest kb = net::decode<MomKillRequest>(net::encode(kill));
  EXPECT_EQ(kb.job_id, 17u);

  MomEmuCompleteRequest emu{17, 3};
  auto eb = net::decode<MomEmuCompleteRequest>(net::encode(emu));
  EXPECT_EQ(eb.exit_code, 3);

  JobReport report{17, 271, true, sim::Time{10}, sim::Time{20}, 5};
  JobReport rb = net::decode<JobReport>(net::encode(report));
  EXPECT_EQ(rb.job_id, 17u);
  EXPECT_EQ(rb.exit_code, 271);
  EXPECT_TRUE(rb.cancelled);
  EXPECT_EQ(rb.start_time, sim::Time{10});
  EXPECT_EQ(rb.mom_host, 5u);
}

TEST(PbsProtocol, StateMessagesRoundTrip) {
  LoadStateRequest load{{1, 2, 3}};
  EXPECT_EQ(net::decode<LoadStateRequest>(net::encode(load)).state,
            (sim::Payload{1, 2, 3}));
  DumpStateResponse dump{Status::kOk, {4, 5}};
  EXPECT_EQ(net::decode<DumpStateResponse>(net::encode(dump)).state,
            (sim::Payload{4, 5}));
}

TEST(PbsProtocol, ResponsesRoundTrip) {
  SubmitResponse sub{Status::kOk, 42};
  SubmitResponse sb = net::decode<SubmitResponse>(net::encode(sub));
  EXPECT_EQ(sb.job_id, 42u);
  EXPECT_EQ(sb.status, Status::kOk);

  StatResponse stat{Status::kOk, {sample_job()}};
  StatResponse stb = net::decode<StatResponse>(net::encode(stat));
  ASSERT_EQ(stb.jobs.size(), 1u);
  EXPECT_EQ(stb.jobs[0].id, 17u);

  SimpleResponse simple{Status::kUnknownJob};
  EXPECT_EQ(net::decode<SimpleResponse>(net::encode(simple)).status,
            Status::kUnknownJob);

  MomLaunchResponse launch{Status::kOk, true};
  MomLaunchResponse lb = net::decode<MomLaunchResponse>(net::encode(launch));
  EXPECT_TRUE(lb.emulated);
}

TEST(PbsProtocol, OpMismatchAndTruncationThrow) {
  sim::Payload buf = net::encode(DeleteRequest{7});
  EXPECT_THROW(net::decode<HoldRequest>(buf), net::WireError);
  buf.resize(2);
  EXPECT_THROW(net::decode<DeleteRequest>(buf), net::WireError);
  EXPECT_THROW(net::peek_tag<Op>(sim::Payload{}), net::WireError);
}

TEST(PbsProtocol, StatusStrings) {
  EXPECT_EQ(to_string(Status::kOk), "ok");
  EXPECT_EQ(to_string(Status::kUnknownJob), "unknown job");
  EXPECT_EQ(to_string(Status::kUnsupported), "operation not supported");
}

}  // namespace
