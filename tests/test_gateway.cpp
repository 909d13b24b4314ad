// The client gateway: wire codec hardening, exactly-once session semantics
// (including retries redirected to a different replica across a sequencer
// crash), response routing, and admission control that backpressures
// explicitly instead of dropping or OOMing.
#include <gtest/gtest.h>

#include <arpa/inet.h>
#include <netinet/in.h>
#include <sys/socket.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <memory>
#include <string>

#include <chrono>
#include <filesystem>
#include <thread>

#include "common/sync.h"
#include "gateway/client_driver.h"
#include "gateway/sim_gateway.h"
#include "proto/client_codec.h"

namespace fsr {
namespace {

Bytes bytes_of(std::string_view s) { return Bytes(s.begin(), s.end()); }

std::string str_of(const Bytes& b) { return std::string(b.begin(), b.end()); }

ClientRequest make_request(std::uint64_t client, std::uint64_t seq,
                           const Bytes& command) {
  ClientRequest req;
  req.client_id = client;
  req.session_seq = seq;
  req.envelope = make_payload(encode_envelope(client, seq, command));
  req.command = parse_envelope(req.envelope)->command;
  return req;
}

// ---------------------------------------------------------------- codec ---

TEST(ClientCodec, FrameRoundtrip) {
  ClientFrame frame;
  ClientHello hello;
  hello.client_id = 42;
  frame.msgs.emplace_back(hello);
  frame.msgs.emplace_back(make_request(42, 7, bytes_of("do-thing")));
  ClientRead read;
  read.client_id = 42;
  read.read_seq = 3;
  read.query = make_payload(bytes_of("key"));
  frame.msgs.emplace_back(read);
  ClientReply reply;
  reply.client_id = 42;
  reply.session_seq = 7;
  reply.status = ClientStatus::kRejectedWindow;
  reply.duplicate = true;
  reply.reply = make_payload(bytes_of("cached"));
  frame.msgs.emplace_back(reply);

  Bytes wire = encode_client_frame(frame);
  EXPECT_EQ(wire.size(), client_wire_size(frame));

  ClientFrame out = decode_client_frame(wire);
  ASSERT_EQ(out.msgs.size(), 4u);
  EXPECT_EQ(std::get<ClientHello>(out.msgs[0]).client_id, 42u);
  const auto& r = std::get<ClientRequest>(out.msgs[1]);
  EXPECT_EQ(r.client_id, 42u);
  EXPECT_EQ(r.session_seq, 7u);
  EXPECT_EQ(str_of(Bytes(r.command.begin(), r.command.end())), "do-thing");
  const auto& rd = std::get<ClientRead>(out.msgs[2]);
  EXPECT_EQ(rd.read_seq, 3u);
  const auto& rp = std::get<ClientReply>(out.msgs[3]);
  EXPECT_EQ(rp.status, ClientStatus::kRejectedWindow);
  EXPECT_TRUE(rp.duplicate);
  EXPECT_EQ(str_of(Bytes(rp.reply.begin(), rp.reply.end())), "cached");
}

TEST(ClientCodec, DecodedRequestEnvelopeAliasesWire) {
  // With an owner, the decoded envelope must be a view into the wire buffer
  // (this is the zero-copy contract: admission broadcasts those bytes).
  ClientFrame frame;
  frame.msgs.emplace_back(make_request(9, 1, bytes_of("payload-bytes")));
  auto wire = std::make_shared<const Bytes>(encode_client_frame(frame));
  ClientFrame out = decode_client_frame(*wire, wire);
  const auto& req = std::get<ClientRequest>(out.msgs[0]);
  EXPECT_GE(req.envelope.data(), wire->data());
  EXPECT_LE(req.envelope.end(), wire->data() + wire->size());
  // And the envelope parses back to the same command, still aliasing.
  auto cmd = parse_envelope(req.envelope);
  ASSERT_TRUE(cmd.has_value());
  EXPECT_EQ(cmd->client_id, 9u);
  EXPECT_EQ(cmd->session_seq, 1u);
  EXPECT_GE(cmd->command.data(), wire->data());
}

TEST(ClientCodec, AdversarialInputsThrowDontCrash) {
  ClientFrame frame;
  frame.msgs.emplace_back(make_request(1, 1, bytes_of("x")));
  Bytes wire = encode_client_frame(frame);

  // Truncations at every length.
  for (std::size_t len = 0; len < wire.size(); ++len) {
    std::span<const std::uint8_t> cut(wire.data(), len);
    EXPECT_THROW(decode_client_frame(cut), CodecError) << "len=" << len;
  }
  // Wrong version.
  Bytes bad = wire;
  bad[0] = 0x7f;
  EXPECT_THROW(decode_client_frame(bad), CodecError);
  // Unknown tag.
  bad = wire;
  bad[2] = 0x6e;
  EXPECT_THROW(decode_client_frame(bad), CodecError);
  // Trailing garbage.
  bad = wire;
  bad.push_back(0x00);
  EXPECT_THROW(decode_client_frame(bad), CodecError);
  // Hostile message count must not allocate.
  Bytes hostile = {kClientProtoVersion, 0xff, 0xff, 0xff, 0xff, 0x7f};
  EXPECT_THROW(decode_client_frame(hostile), CodecError);
  // Unknown reply status byte.
  ClientFrame rf;
  ClientReply rep;
  rep.client_id = 1;
  rep.session_seq = 1;
  rf.msgs.emplace_back(rep);
  Bytes rw = encode_client_frame(rf);
  rw[rw.size() - 3] = 0x63;  // status byte of the trailing reply
  EXPECT_THROW(decode_client_frame(rw), CodecError);
}

TEST(ClientCodec, ParseEnvelopeDistinguishesPlainBroadcasts) {
  // A payload not starting with the magic is not gateway traffic.
  EXPECT_FALSE(parse_envelope(make_payload(bytes_of("plain"))).has_value());
  EXPECT_FALSE(parse_envelope(Payload{}).has_value());
  // Magic but truncated body: malformed, thrown (callers count and drop).
  Bytes junk = {0xC5, 0x01};
  EXPECT_THROW(parse_envelope(make_payload(junk)), CodecError);
  // Roundtrip.
  Bytes env = encode_envelope(77, 12, bytes_of("cmd"));
  auto cmd = parse_envelope(make_payload(env));
  ASSERT_TRUE(cmd.has_value());
  EXPECT_EQ(cmd->client_id, 77u);
  EXPECT_EQ(cmd->session_seq, 12u);
  EXPECT_EQ(str_of(Bytes(cmd->command.begin(), cmd->command.end())), "cmd");
}

// ------------------------------------------------------- sim exactly-once ---

struct GatewayFixture {
  explicit GatewayFixture(std::size_t n = 3, GatewayConfig gw = {}) {
    SimGatewayConfig cfg;
    cfg.cluster.n = n;
    cfg.gateway = gw;
    gc = std::make_unique<SimGatewayCluster>(cfg);
  }
  std::unique_ptr<SimGatewayCluster> gc;
};

TEST(Gateway, ClosedLoopSessionExecutesInOrder) {
  GatewayFixture f;
  SimClient::Options opt;
  opt.client_id = 7;
  opt.replica = 1;
  SimClient client(*f.gc, opt);
  client.submit(KvStore::encode_put("k", "1"));
  client.submit(KvStore::encode_cas("k", "1", "2"));
  client.submit(KvStore::encode_cas("k", "2", "3"));
  f.gc->sim().run();

  ASSERT_EQ(client.completed().size(), 3u);
  for (const auto& d : client.completed()) {
    EXPECT_EQ(d.status, ClientStatus::kOk);
    EXPECT_EQ(str_of(d.reply), "OK");
  }
  EXPECT_TRUE(client.idle());
  EXPECT_EQ(f.gc->check_replicas_converged(), "");
  EXPECT_EQ(f.gc->cluster().check_all(), "");
  for (std::size_t i = 0; i < f.gc->size(); ++i) {
    EXPECT_EQ(f.gc->store(static_cast<NodeId>(i)).get("k"), "3");
    EXPECT_EQ(f.gc->store(static_cast<NodeId>(i)).failed_cas(), 0u);
    Gateway& gw = f.gc->gateway(static_cast<NodeId>(i));
    ThreadRoleRegion role(gw.role());  // sim gateways run on the test thread
    EXPECT_EQ(gw.last_executed(7), 3u);
  }
}

TEST(Gateway, DuplicateRetryServedFromReplyCache) {
  GatewayFixture f;
  auto& gw = f.gc->gateway(0);
  // Sim gateways run on the test thread; adopt the role for direct calls.
  ThreadRoleRegion role(gw.role());
  std::vector<ClientReply> replies;
  auto send = [&](const ClientReply& r) { replies.push_back(r); };

  gw.on_request(make_request(5, 1, KvStore::encode_put("a", "x")), send);
  f.gc->sim().run();
  ASSERT_EQ(replies.size(), 1u);
  EXPECT_EQ(replies[0].status, ClientStatus::kOk);
  EXPECT_FALSE(replies[0].duplicate);

  // Retransmit of the executed seq: cached reply, no second execution.
  gw.on_request(make_request(5, 1, KvStore::encode_put("a", "x")), send);
  f.gc->sim().run();
  ASSERT_EQ(replies.size(), 2u);
  EXPECT_EQ(replies[1].status, ClientStatus::kOk);
  EXPECT_TRUE(replies[1].duplicate);
  EXPECT_EQ(str_of(Bytes(replies[1].reply.begin(), replies[1].reply.end())), "OK");
  EXPECT_EQ(gw.counters().duplicate_hits, 1u);
  EXPECT_EQ(f.gc->store(0).applied_commands(), 1u);
  EXPECT_EQ(f.gc->check_replicas_converged(), "");
}

TEST(Gateway, SessionSeqGapRejected) {
  GatewayFixture f;
  auto& gw = f.gc->gateway(0);
  ThreadRoleRegion role(gw.role());
  std::vector<ClientReply> replies;
  auto send = [&](const ClientReply& r) { replies.push_back(r); };
  // A seq ahead of this replica's horizon is retryable, never admitted: the
  // gateway cannot distinguish a failed-over client (acked elsewhere,
  // delivery still catching up here) from a fabricator, so it answers
  // "resend later" and lets delivery — or the client's retry budget —
  // settle the question.
  gw.on_request(make_request(5, 4, KvStore::encode_put("a", "x")), send);
  ASSERT_EQ(replies.size(), 1u);
  EXPECT_EQ(replies[0].status, ClientStatus::kRejectedWindow);
  EXPECT_EQ(gw.counters().rejected_ahead, 1u);
  // seq 0 is never valid: that one IS provably malformed.
  gw.on_request(make_request(5, 0, KvStore::encode_put("a", "x")), send);
  ASSERT_EQ(replies.size(), 2u);
  EXPECT_EQ(replies[1].status, ClientStatus::kBadRequest);
  f.gc->sim().run();
  EXPECT_EQ(f.gc->store(0).applied_commands(), 0u);
}

TEST(Gateway, LocalReadsAnswerWithoutBroadcast) {
  GatewayFixture f;
  SimClient::Options opt;
  opt.client_id = 2;
  SimClient client(*f.gc, opt);
  client.submit(KvStore::encode_put("color", "teal"));
  f.gc->sim().run();

  auto& gw = f.gc->gateway(2);  // reads work on any replica
  ThreadRoleRegion role(gw.role());
  std::vector<ClientReply> replies;
  ClientRead read;
  read.client_id = 99;  // reads don't need a session
  read.read_seq = 1;
  read.query = make_payload(KvStore::encode_get("color"));
  gw.on_read(read, [&](const ClientReply& r) { replies.push_back(r); });
  ASSERT_EQ(replies.size(), 1u);
  auto val = KvStore::decode_get_reply(replies[0].reply.span());
  ASSERT_TRUE(val.has_value());
  EXPECT_EQ(*val, "teal");
  EXPECT_EQ(gw.counters().reads, 1u);
}

// The tentpole scenario: the client's replica crashes mid-request and the
// retry goes through a different replica. The command must execute exactly
// once (chained CAS makes double-execution visible as failed_cas) and the
// duplicate path must actually fire across the run.
TEST(Gateway, RetryAcrossCrashExecutesExactlyOnce) {
  GatewayFixture f(4);
  SimClient::Options opt;
  opt.client_id = 11;
  opt.replica = 0;
  opt.retry_timeout = 300 * kMillisecond;
  SimClient client(*f.gc, opt);
  client.submit(KvStore::encode_put("x", "0"));
  for (int i = 0; i < 9; ++i) {
    client.submit(KvStore::encode_cas("x", std::to_string(i), std::to_string(i + 1)));
  }
  // Let the first few commands land, then crash the owner replica
  // mid-session.
  while (client.completed().size() < 3 && !f.gc->sim().empty()) {
    f.gc->sim().run_steps(50);
  }
  ASSERT_TRUE(client.completed().size() < 10u);
  f.gc->crash(0);
  f.gc->sim().run();

  ASSERT_TRUE(client.idle()) << "completed " << client.completed().size();
  ASSERT_EQ(client.completed().size(), 10u);
  for (const auto& d : client.completed()) {
    EXPECT_EQ(d.status, ClientStatus::kOk);
    EXPECT_EQ(str_of(d.reply), "OK") << "seq " << d.seq;
  }
  EXPECT_NE(client.replica(), 0) << "client must have failed over";
  // Exactly-once, on every surviving replica: the CAS chain ran clean.
  for (NodeId id = 1; id < 4; ++id) {
    EXPECT_EQ(f.gc->store(id).get("x"), "9");
    EXPECT_EQ(f.gc->store(id).failed_cas(), 0u) << "node " << int(id);
  }
  EXPECT_EQ(f.gc->check_replicas_converged(), "");
  EXPECT_EQ(f.gc->cluster().check_all(), "");
}

// ------------------------------------------------------- admission control ---

TEST(Gateway, WindowOverflowQueuesThenRejectsExplicitly) {
  GatewayConfig gw_cfg;
  gw_cfg.session_window = 2;
  gw_cfg.session_queue = 3;
  GatewayFixture f(3, gw_cfg);
  auto& gw = f.gc->gateway(0);
  ThreadRoleRegion role(gw.role());

  std::vector<ClientReply> replies;
  auto send = [&](const ClientReply& r) { replies.push_back(r); };
  const int kBurst = 8;
  for (int i = 1; i <= kBurst; ++i) {
    gw.on_request(make_request(3, i, KvStore::encode_put("k" + std::to_string(i), "v")),
                  send);
  }
  // window(2) admitted + queue(3) parked; the rest rejected immediately.
  EXPECT_EQ(gw.counters().admitted, 2u);
  EXPECT_EQ(gw.counters().queued, 3u);
  EXPECT_EQ(gw.counters().rejected_window, 3u);
  EXPECT_EQ(replies.size(), 3u);
  for (const auto& r : replies) EXPECT_EQ(r.status, ClientStatus::kRejectedWindow);

  f.gc->sim().run();
  // Deliveries drained the queue: every admitted/queued command executed
  // and was answered; nothing was silently dropped.
  EXPECT_EQ(replies.size(), 8u);
  std::size_t ok = 0;
  for (const auto& r : replies) ok += r.status == ClientStatus::kOk;
  EXPECT_EQ(ok, 5u);
  EXPECT_EQ(f.gc->store(0).applied_commands(), 5u);
  EXPECT_EQ(gw.admitted_bytes(), 0u) << "budget must drain to zero";
  // The engine behind the gateway stayed healthy.
  EngineCounters ec = f.gc->cluster().engine_counters();
  EXPECT_EQ(ec.out_of_window, 0u);
  EXPECT_GT(ec.records_pooled + ec.records_allocated, 0u);
  EXPECT_EQ(f.gc->check_replicas_converged(), "");
  EXPECT_EQ(f.gc->cluster().check_all(), "");

  // The client can resume where the rejections left off (seq 6).
  replies.clear();
  gw.on_request(make_request(3, 6, KvStore::encode_put("k6", "v")), send);
  f.gc->sim().run();
  ASSERT_EQ(replies.size(), 1u);
  EXPECT_EQ(replies[0].status, ClientStatus::kOk);
}

TEST(Gateway, ByteBudgetRejectsInsteadOfBuffering) {
  GatewayConfig gw_cfg;
  gw_cfg.session_window = 64;
  gw_cfg.admitted_bytes_budget = 4096;
  GatewayFixture f(3, gw_cfg);
  auto& gw = f.gc->gateway(0);
  ThreadRoleRegion role(gw.role());

  std::vector<ClientReply> replies;
  auto send = [&](const ClientReply& r) { replies.push_back(r); };
  Bytes big(1500, 0xAB);
  int rejected = 0;
  for (int i = 1; i <= 6; ++i) {
    gw.on_request(make_request(4, i,
                               KvStore::encode_put("big" + std::to_string(i),
                                                   std::string(big.begin(), big.end()))),
                  send);
    if (!replies.empty() && replies.back().session_seq == std::uint64_t(i) &&
        replies.back().status == ClientStatus::kRejectedBytes) {
      ++rejected;
      break;
    }
  }
  EXPECT_GT(rejected, 0) << "budget must eventually reject";
  EXPECT_GT(gw.counters().rejected_bytes, 0u);
  f.gc->sim().run();
  EXPECT_EQ(gw.admitted_bytes(), 0u);
  EXPECT_EQ(f.gc->check_replicas_converged(), "");
}

TEST(Gateway, OversizedCommandRejectedOutright) {
  GatewayConfig gw_cfg;
  gw_cfg.max_command_bytes = 64;
  GatewayFixture f(3, gw_cfg);
  auto& gw = f.gc->gateway(0);
  ThreadRoleRegion role(gw.role());
  std::vector<ClientReply> replies;
  gw.on_request(make_request(6, 1, Bytes(1024, 0x11)),
                [&](const ClientReply& r) { replies.push_back(r); });
  ASSERT_EQ(replies.size(), 1u);
  EXPECT_EQ(replies[0].status, ClientStatus::kBadRequest);
  EXPECT_EQ(gw.counters().admitted, 0u);
}

TEST(Gateway, PlainBroadcastsCoexistWithEnvelopes) {
  GatewayFixture f;
  // A plain (non-gateway) broadcast applies to the state machine directly.
  f.gc->cluster().broadcast(1, KvStore::encode_put("plain", "1"));
  SimClient::Options opt;
  opt.client_id = 1;
  SimClient client(*f.gc, opt);
  client.submit(KvStore::encode_put("sessioned", "2"));
  f.gc->sim().run();
  for (std::size_t i = 0; i < f.gc->size(); ++i) {
    EXPECT_EQ(f.gc->store(static_cast<NodeId>(i)).get("plain"), "1");
    EXPECT_EQ(f.gc->store(static_cast<NodeId>(i)).get("sessioned"), "2");
  }
  EXPECT_EQ(f.gc->check_replicas_converged(), "");
  EXPECT_EQ(f.gc->cluster().check_all(), "");
}

// Admission-control memory regression: a duplicate flood (thousands of
// replays of already-executed seqs) must be answered entirely from the
// bounded reply cache — zero admitted bytes, zero new broadcasts, zero new
// applies, and a cache that never grows past sessions() * reply_cache.
TEST(Gateway, DuplicateFloodKeepsAdmissionMemoryBounded) {
  GatewayConfig gw_cfg;
  gw_cfg.session_window = 4;
  gw_cfg.session_queue = 8;
  gw_cfg.reply_cache = 4;
  gw_cfg.admitted_bytes_budget = 32 * 1024;
  GatewayFixture f(3, gw_cfg);
  auto& gw = f.gc->gateway(0);
  ThreadRoleRegion role(gw.role());
  auto drop = [](const ClientReply&) {};

  // A session executes 6 commands; with reply_cache = 4 the two oldest
  // replies age out (the flood below replays those too).
  const std::uint64_t kClient = 9;
  const int kChain = 6;
  for (int i = 1; i <= kChain; ++i) {
    gw.on_request(make_request(kClient, std::uint64_t(i),
                               KvStore::encode_put("k", std::to_string(i))),
                  drop);
    f.gc->sim().run();
  }
  ASSERT_EQ(gw.last_executed(kClient), std::uint64_t(kChain));
  EXPECT_EQ(gw.counters().reply_cache_evictions, std::uint64_t(kChain) - gw_cfg.reply_cache);

  const auto applied_before = f.gc->store(0).applied_commands();
  const auto admitted_before = gw.counters().admitted;
  const auto cache_before = gw.reply_cache_entries();
  ASSERT_LE(cache_before, gw.sessions() * gw_cfg.reply_cache);

  // Flood: 5000 replays cycling over every executed seq, including the
  // evicted ones. Every one must be answered as a duplicate without
  // touching admission state.
  const int kFlood = 5000;
  std::uint64_t dup_replies = 0, empty_replies = 0;
  std::size_t max_cache = 0;
  auto count = [&](const ClientReply& r) {
    EXPECT_EQ(r.status, ClientStatus::kOk);
    EXPECT_TRUE(r.duplicate);
    ++dup_replies;
    empty_replies += r.reply.empty();
  };
  for (int i = 0; i < kFlood; ++i) {
    const std::uint64_t seq = 1 + std::uint64_t(i) % kChain;
    gw.on_request(make_request(kClient, seq,
                               KvStore::encode_put("k", std::to_string(seq))),
                  count);
    // Probe during the flood, not just after: a transient spike is a bug.
    max_cache = std::max(max_cache, gw.reply_cache_entries());
    ASSERT_EQ(gw.admitted_bytes(), 0u) << "flood admitted bytes at i=" << i;
  }
  EXPECT_EQ(dup_replies, std::uint64_t(kFlood));
  EXPECT_GT(empty_replies, 0u) << "evicted seqs must still get duplicate acks";
  EXPECT_GE(gw.counters().duplicate_hits, std::uint64_t(kFlood));
  EXPECT_LE(max_cache, gw.sessions() * gw_cfg.reply_cache);
  EXPECT_EQ(gw.reply_cache_entries(), cache_before) << "flood grew the cache";
  EXPECT_EQ(gw.counters().admitted, admitted_before) << "flood was re-admitted";

  f.gc->sim().run();
  EXPECT_EQ(f.gc->store(0).applied_commands(), applied_before)
      << "a replayed command re-executed";
  EXPECT_EQ(f.gc->check_replicas_converged(), "");
  EXPECT_EQ(f.gc->cluster().check_all(), "");
}


// ------------------------------------------- coalescing batch envelopes ---

TEST(ClientCodec, BatchEnvelopeRoundtripAliasesDelivered) {
  EnvelopeBatch batch;
  Bytes a = encode_envelope(7, 1, bytes_of("alpha"));
  Bytes b = encode_envelope(8, 3, bytes_of("bravo"));
  Bytes c = encode_read_envelope(9, (std::uint64_t{1} << 63) + 4,
                                 bytes_of("query"));
  batch.append(make_payload(Bytes(a)));
  batch.append(make_payload(Bytes(b)));
  batch.append(make_payload(Bytes(c)));
  EXPECT_EQ(batch.count(), 3u);

  Payload wire = batch.take();
  ASSERT_FALSE(wire.empty());
  EXPECT_EQ(*wire.data(), kBatchEnvelopeMagic);
  EXPECT_TRUE(batch.empty()) << "take() must reset the batch";

  auto subs = parse_batch_envelope(wire);
  ASSERT_TRUE(subs.has_value());
  ASSERT_EQ(subs->size(), 3u);
  // Zero-copy contract: every sub-envelope aliases the delivered buffer.
  for (const Payload& sub : *subs) {
    EXPECT_GE(sub.data(), wire.data());
    EXPECT_LE(sub.end(), wire.end());
  }
  auto cmd_a = parse_envelope((*subs)[0]);
  ASSERT_TRUE(cmd_a.has_value());
  EXPECT_EQ(cmd_a->client_id, 7u);
  EXPECT_EQ(str_of(Bytes(cmd_a->command.begin(), cmd_a->command.end())), "alpha");
  auto rd = parse_read_envelope((*subs)[2]);
  ASSERT_TRUE(rd.has_value());
  EXPECT_EQ(rd->client_id, 9u);
  EXPECT_EQ(str_of(Bytes(rd->query.begin(), rd->query.end())), "query");
}

TEST(ClientCodec, SingleEnvelopeBatchEmittedUnwrapped) {
  // A batch of one pays no framing: take() hands back the plain envelope,
  // byte-identical to the uncoalesced wire format.
  EnvelopeBatch batch;
  Bytes env = encode_envelope(5, 2, bytes_of("solo"));
  batch.append(make_payload(Bytes(env)));
  Payload out = batch.take();
  EXPECT_EQ(Bytes(out.begin(), out.end()), env);
  EXPECT_EQ(parse_batch_envelope(out), std::nullopt)
      << "single-envelope output must not carry the batch magic";
}

TEST(ClientCodec, BatchAdversarialInputsThrowDontCrash) {
  // Not a batch at all: nullopt, never a throw (callers dispatch on magic).
  EXPECT_EQ(parse_batch_envelope(make_payload(
                encode_envelope(1, 1, bytes_of("x")))),
            std::nullopt);

  // Empty batch: the magic with no sub-envelopes is malformed by fiat — the
  // coalescer never emits it, so delivery treats it as hostile.
  EXPECT_THROW(parse_batch_envelope(make_payload(Bytes{kBatchEnvelopeMagic})),
               CodecError);

  // Unknown sub-envelope magic (a lease grant nested in a batch is invalid:
  // grants ride alone).
  {
    Bytes evil = {kBatchEnvelopeMagic};
    Bytes lease = encode_lease_envelope(1, 1000);
    evil.insert(evil.end(), lease.begin(), lease.end());
    EXPECT_THROW(parse_batch_envelope(make_payload(evil)), CodecError);
  }

  // Truncated sub-envelope: header promises more command bytes than remain.
  {
    Bytes env = encode_envelope(3, 9, bytes_of("truncate-me"));
    Bytes evil = {kBatchEnvelopeMagic};
    evil.insert(evil.end(), env.begin(), env.end() - 4);
    EXPECT_THROW(parse_batch_envelope(make_payload(evil)), CodecError);
  }

  // Hostile varint length: 10 continuation bytes claiming a gigantic
  // command must throw, not allocate or scan past the buffer.
  {
    Bytes evil = {kBatchEnvelopeMagic, kEnvelopeMagic, 0x01, 0x01};
    for (int i = 0; i < 10; ++i) evil.push_back(0xFF);
    EXPECT_THROW(parse_batch_envelope(make_payload(evil)), CodecError);
  }

  // Trailing garbage after a valid sub-envelope.
  {
    Bytes env = encode_envelope(4, 1, bytes_of("ok"));
    Bytes evil = {kBatchEnvelopeMagic};
    evil.insert(evil.end(), env.begin(), env.end());
    evil.push_back(0x00);  // not a valid sub magic
    EXPECT_THROW(parse_batch_envelope(make_payload(evil)), CodecError);
  }

  // Read/lease envelope hardening: wrong magic is nullopt, trailing bytes
  // throw (same contract as parse_envelope).
  EXPECT_EQ(parse_read_envelope(make_payload(encode_lease_envelope(1, 1))),
            std::nullopt);
  EXPECT_EQ(parse_lease_envelope(make_payload(bytes_of("zz"))), std::nullopt);
  {
    Bytes env = encode_read_envelope(1, 2, bytes_of("q"));
    env.push_back(0xAB);
    // Trailing bytes make the query span one byte long? No: the read
    // envelope is self-delimiting via its length varint, so extra bytes
    // past the declared query are hostile.
    EXPECT_THROW(parse_read_envelope(make_payload(env)), CodecError);
  }
  {
    Bytes env = encode_lease_envelope(7, 500);
    env.push_back(0x01);
    EXPECT_THROW(parse_lease_envelope(make_payload(env)), CodecError);
  }
}

TEST(Gateway, MalformedBatchDeliveryRejectedNotCrashed) {
  GatewayFixture f;
  auto& gw = f.gc->gateway(0);
  ThreadRoleRegion role(gw.role());
  const std::uint64_t before = gw.counters().rejected_malformed;
  const Bytes evils[] = {
      Bytes{kBatchEnvelopeMagic},                    // empty batch
      Bytes{kBatchEnvelopeMagic, kLeaseEnvelopeMagic, 0x01, 0x01},
      Bytes{kBatchEnvelopeMagic, kEnvelopeMagic, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF,
            0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0x01},     // hostile varint
  };
  for (const Bytes& evil : evils) {
    Delivery d;
    d.origin = 1;
    d.payload = make_payload(Bytes(evil));
    gw.on_delivery(d);  // must count + drop, never throw or apply
  }
  EXPECT_EQ(gw.counters().rejected_malformed, before + 3);
  EXPECT_EQ(f.gc->store(0).applied_commands(), 0u);
}

// Concurrent same-replica requests must leave in shared batch envelopes:
// the coalescing counters prove real amortization (strictly fewer
// broadcasts than envelopes), and delivery unpacks to exactly-once applies.
TEST(Gateway, CoalescingBatchesConcurrentRequestsExactlyOnce) {
  GatewayFixture f;
  std::vector<std::unique_ptr<SimClient>> clients;
  for (int c = 0; c < 8; ++c) {
    SimClient::Options opt;
    opt.client_id = 100 + c;
    opt.replica = 0;  // same gateway: their envelopes share batches
    clients.push_back(std::make_unique<SimClient>(*f.gc, opt));
    for (int i = 0; i < 5; ++i) {
      clients.back()->submit(
          KvStore::encode_put("c" + std::to_string(c), std::to_string(i)));
    }
  }
  f.gc->sim().run();
  for (auto& cl : clients) {
    ASSERT_TRUE(cl->idle());
    ASSERT_EQ(cl->completed().size(), 5u);
    for (const auto& d : cl->completed()) EXPECT_EQ(d.status, ClientStatus::kOk);
  }
  auto& gw = f.gc->gateway(0);
  ThreadRoleRegion role(gw.role());
  EXPECT_GE(gw.counters().coalesced_envelopes, 40u);
  EXPECT_LT(gw.counters().coalesce_flushes, gw.counters().coalesced_envelopes)
      << "no batch ever held more than one envelope — coalescing is vacuous";
  EXPECT_EQ(f.gc->check_replicas_converged(), "");
  EXPECT_EQ(f.gc->cluster().check_all(), "");
}

// A coalesced envelope in flight when the sequencer dies: the batch (or its
// retries) must execute every command exactly once on the survivors —
// chained CAS per client makes any double-apply visible as failed_cas.
TEST(Gateway, CoalescedEnvelopeSpansSequencerCrashExactlyOnce) {
  GatewayFixture f(4);
  std::vector<std::unique_ptr<SimClient>> clients;
  for (int c = 0; c < 6; ++c) {
    SimClient::Options opt;
    opt.client_id = 200 + c;
    opt.replica = 1;  // gateway survives; only the sequencer (node 0) dies
    opt.retry_timeout = 300 * kMillisecond;
    clients.push_back(std::make_unique<SimClient>(*f.gc, opt));
    const std::string key = "k" + std::to_string(c);
    clients.back()->submit(KvStore::encode_put(key, "0"));
    for (int i = 0; i < 7; ++i) {
      clients.back()->submit(
          KvStore::encode_cas(key, std::to_string(i), std::to_string(i + 1)));
    }
  }
  // Let batches start flowing, then kill the sequencer mid-stream.
  std::size_t done = 0;
  while (done < 6 && !f.gc->sim().empty()) {
    f.gc->sim().run_steps(40);
    done = 0;
    for (auto& cl : clients) done += cl->completed().size();
  }
  ASSERT_LT(done, 48u) << "crash must land mid-run; slow the warmup loop";
  f.gc->crash(0);
  f.gc->sim().run();

  for (auto& cl : clients) {
    ASSERT_TRUE(cl->idle());
    ASSERT_EQ(cl->completed().size(), 8u);
    for (const auto& d : cl->completed()) {
      EXPECT_EQ(d.status, ClientStatus::kOk);
    }
  }
  for (NodeId id = 1; id < 4; ++id) {
    EXPECT_EQ(f.gc->store(id).failed_cas(), 0u) << "node " << int(id);
    EXPECT_EQ(f.gc->store(id).get("k0"), "7");
  }
  {
    auto& gw = f.gc->gateway(1);
    ThreadRoleRegion role(gw.role());
    EXPECT_LT(gw.counters().coalesce_flushes, gw.counters().coalesced_envelopes)
        << "the run never actually batched";
  }
  EXPECT_EQ(f.gc->check_replicas_converged(), "");
  EXPECT_EQ(f.gc->cluster().check_all(), "");
}

// ------------------------------------------------------------ read leases ---

struct LeaseFixture {
  explicit LeaseFixture(std::size_t n = 3) {
    GatewayConfig gw;
    gw.read_mode = GatewayReadMode::kLeased;
    gw.lease_duration = 10 * kSecond;  // sim runs finish well inside this
    f = std::make_unique<GatewayFixture>(n, gw);
  }
  // One completed write through `replica` (also the traffic that lets the
  // leader grant/renew the lease).
  void write(NodeId replica, const std::string& k, const std::string& v) {
    SimClient::Options opt;
    opt.client_id = next_client_++;
    opt.replica = replica;
    SimClient client(*f->gc, opt);
    client.submit(KvStore::encode_put(k, v));
    f->gc->sim().run();
    ASSERT_EQ(client.completed().size(), 1u);
    ASSERT_EQ(client.completed()[0].status, ClientStatus::kOk);
  }
  std::unique_ptr<GatewayFixture> f;
  std::uint64_t next_client_ = 900;
};

TEST(GatewayLease, WarmLeaseServesReadsLocallyWithoutRingTrips) {
  LeaseFixture lf;
  lf.write(0, "color", "teal");

  // The write's delivery was gateway traffic: the leader granted a lease
  // and every replica applied it.
  auto& gw = lf.f->gc->gateway(2);
  ThreadRoleRegion role(gw.role());
  ASSERT_TRUE(gw.lease_valid())
      << "first delivery round must have granted the lease";
  EXPECT_GE(gw.counters().lease_grants_applied, 1u);

  std::vector<ClientReply> replies;
  ClientRead read;
  read.client_id = 77;
  read.read_seq = std::uint64_t{1} << 63;
  read.query = make_payload(KvStore::encode_get("color"));
  gw.on_read(read, [&](const ClientReply& r) { replies.push_back(r); });
  // Leased local read: answered synchronously, no broadcast.
  ASSERT_EQ(replies.size(), 1u);
  EXPECT_EQ(replies[0].status, ClientStatus::kOk);
  EXPECT_EQ(KvStore::decode_get_reply(replies[0].reply.span()), "teal");
  EXPECT_EQ(gw.counters().reads_local, 1u);
  EXPECT_EQ(gw.counters().reads_ordered, 0u);
  EXPECT_EQ(gw.pending_ordered_reads(), 0u);
}

TEST(GatewayLease, ColdLeaseFallsBackToOrderedReads) {
  LeaseFixture lf;
  // No traffic yet: no lease anywhere. A read must take the ring trip.
  auto& gw = lf.f->gc->gateway(1);
  std::vector<ClientReply> replies;
  {
    ThreadRoleRegion role(gw.role());
    ASSERT_FALSE(gw.lease_valid());
    ClientRead read;
    read.client_id = 78;
    read.read_seq = (std::uint64_t{1} << 63) + 1;
    read.query = make_payload(KvStore::encode_get("missing"));
    gw.on_read(read, [&](const ClientReply& r) { replies.push_back(r); });
    EXPECT_TRUE(replies.empty()) << "cold read must not answer locally";
    EXPECT_EQ(gw.counters().reads_ordered, 1u);
    EXPECT_EQ(gw.pending_ordered_reads(), 1u);
  }
  lf.f->gc->sim().run();
  {
    ThreadRoleRegion role(gw.role());
    ASSERT_EQ(replies.size(), 1u) << "ordered read must answer at delivery";
    EXPECT_EQ(replies[0].status, ClientStatus::kOk);
    EXPECT_EQ(gw.pending_ordered_reads(), 0u);
  }
}

// The acceptance scenario: a leader crash invalidates every outstanding
// lease before the new view serves traffic, so no replica can serve a
// local read from pre-view state; once the new leader re-grants, local
// reads resume and observe everything sequenced before them.
TEST(GatewayLease, ViewChangeInvalidatesLeaseNoStaleRead) {
  LeaseFixture lf;
  lf.write(1, "color", "teal");
  auto& gw2 = lf.f->gc->gateway(2);
  {
    ThreadRoleRegion role(gw2.role());
    ASSERT_TRUE(gw2.lease_valid());
  }

  // Leader (node 0) dies; the view change must conservatively kill the
  // lease even though node 2 did nothing wrong.
  lf.f->gc->crash(0);
  lf.f->gc->sim().run();
  {
    ThreadRoleRegion role(gw2.role());
    EXPECT_FALSE(gw2.lease_valid())
        << "a lease granted in the old view survived the view change";
  }

  // A read in the cold window takes the ordered path (counted), never the
  // local one.
  std::vector<ClientReply> replies;
  {
    ThreadRoleRegion role(gw2.role());
    const std::uint64_t ordered_before = gw2.counters().reads_ordered;
    ClientRead read;
    read.client_id = 79;
    read.read_seq = (std::uint64_t{1} << 63) + 9;
    read.query = make_payload(KvStore::encode_get("color"));
    gw2.on_read(read, [&](const ClientReply& r) { replies.push_back(r); });
    EXPECT_TRUE(replies.empty());
    EXPECT_EQ(gw2.counters().reads_ordered, ordered_before + 1);
  }
  lf.f->gc->sim().run();
  ASSERT_EQ(replies.size(), 1u);
  EXPECT_EQ(KvStore::decode_get_reply(replies[0].reply.span()), "teal");

  // New-view traffic lets the new leader (node 1) re-grant; a local read
  // under the fresh lease must observe that write — nothing stale.
  lf.write(1, "color", "mauve");
  {
    ThreadRoleRegion role(gw2.role());
    ASSERT_TRUE(gw2.lease_valid()) << "new leader never re-granted";
    const std::uint64_t local_before = gw2.counters().reads_local;
    std::vector<ClientReply> fresh;
    ClientRead read;
    read.client_id = 80;
    read.read_seq = (std::uint64_t{1} << 63) + 10;
    read.query = make_payload(KvStore::encode_get("color"));
    gw2.on_read(read, [&](const ClientReply& r) { fresh.push_back(r); });
    ASSERT_EQ(fresh.size(), 1u);
    EXPECT_EQ(KvStore::decode_get_reply(fresh[0].reply.span()), "mauve");
    EXPECT_EQ(gw2.counters().reads_local, local_before + 1);
  }
  EXPECT_EQ(lf.f->gc->check_replicas_converged(), "");
}

// ------------------------------------------------- connection teardown ---

// A connection that dies with replies still owed must not leak its
// reply-routing entry: the binding is reclaimed at disconnect and the owed
// replies are counted as orphaned drops when their deliveries resolve.
TEST(Gateway, DisconnectWithQueuedRepliesCountsOrphans) {
  GatewayFixture f;
  auto& gw = f.gc->gateway(0);
  ThreadRoleRegion role(gw.role());
  std::vector<ClientReply> replies;
  auto send = [&](const ClientReply& r) { replies.push_back(r); };

  gw.on_request(make_request(9, 1, KvStore::encode_put("a", "1")), send, 42);
  gw.on_request(make_request(9, 2, KvStore::encode_put("a", "2")), send, 42);
  ASSERT_EQ(gw.owned_sessions(), 1u);

  // The connection dies before either delivery resolves.
  gw.on_client_disconnect(9, 42);
  EXPECT_EQ(gw.owned_sessions(), 0u) << "binding leaked after disconnect";
  EXPECT_EQ(gw.counters().orphaned_reply_drops, 2u)
      << "owed replies not accounted at teardown";

  f.gc->sim().run();
  // Deliveries still executed exactly once (session state is replicated),
  // but nobody was owed the replies.
  EXPECT_TRUE(replies.empty());
  EXPECT_EQ(f.gc->store(0).get("a"), "2");
  EXPECT_EQ(f.gc->check_replicas_converged(), "");
}

// -------------------------------------------------------------- real TCP ---

bool fingerprints_converge(TcpGatewayCluster& gc, Time timeout) {
  auto deadline = std::chrono::steady_clock::now() +
                  std::chrono::nanoseconds(timeout);
  for (;;) {
    auto fps = gc.fingerprints();
    bool equal = !fps.empty();
    for (std::uint64_t fp : fps) equal = equal && fp == fps[0];
    if (equal) return true;
    if (std::chrono::steady_clock::now() > deadline) return false;
    std::this_thread::sleep_for(std::chrono::milliseconds(20));
  }
}

TEST(GatewayTcp, EndToEndSessionOverSockets) {
  TcpGatewayCluster gc;
  GatewayClient::Options opt;
  opt.client_id = 21;
  opt.endpoints = gc.endpoints();
  GatewayClient client(opt);

  auto r = client.call(KvStore::encode_put("greeting", "hello"));
  ASSERT_TRUE(r.ok);
  EXPECT_EQ(r.status, ClientStatus::kOk);
  EXPECT_EQ(str_of(r.reply), "OK");
  for (int i = 0; i < 20; ++i) {
    r = client.call(KvStore::encode_cas("greeting",
                                        i == 0 ? "hello" : std::to_string(i - 1),
                                        std::to_string(i)));
    ASSERT_TRUE(r.ok) << "cas " << i;
    EXPECT_EQ(str_of(r.reply), "OK") << "cas " << i;
  }
  // Local read on the connected replica.
  auto got = client.read(KvStore::encode_get("greeting"));
  ASSERT_TRUE(got.has_value());
  EXPECT_EQ(KvStore::decode_get_reply(*got), "19");

  ASSERT_TRUE(fingerprints_converge(gc, 10 * kSecond));
  EXPECT_EQ(gc.total_failed_cas(), 0u);
  EXPECT_EQ(gc.check_invariants(), "");
  auto counters = gc.gateway_counters();
  EXPECT_EQ(counters.commands_applied, 21u * 3);  // every replica applied all
  EXPECT_EQ(counters.replies_sent, 22u);          // 21 calls + 1 read
}

// Crash the replica owning the client's connection mid-chain; the client
// reconnects to a different replica and the CAS chain must run exactly once
// (any double apply shows up as failed_cas on the survivors).
TEST(GatewayTcp, ClientSurvivesReplicaCrashExactlyOnce) {
  TcpGatewayClusterConfig cfg;
  cfg.n = 3;
  TcpGatewayCluster gc(cfg);

  GatewayClient::Options opt;
  opt.client_id = 31;
  opt.endpoints = gc.endpoints();
  opt.start_index = 0;  // owned by the replica we will crash
  opt.recv_timeout = 500 * kMillisecond;
  GatewayClient client(opt);

  ASSERT_TRUE(client.call(KvStore::encode_put("x", "0")).ok);

  const int kSteps = 300;
  std::atomic<int> progress{0};
  Thread chain([&] {
    for (int i = 0; i < kSteps; ++i) {
      auto r = client.call(
          KvStore::encode_cas("x", std::to_string(i), std::to_string(i + 1)));
      ASSERT_TRUE(r.ok) << "cas " << i;
      ASSERT_EQ(str_of(r.reply), "OK") << "cas " << i;
      progress.store(i + 1);
    }
  });
  // Crash the owner mid-chain (after it demonstrably made progress, with
  // plenty of the chain left to ride through the failover).
  while (progress.load() < kSteps / 4) std::this_thread::sleep_for(std::chrono::milliseconds(1));
  gc.crash(0);
  chain.join();

  EXPECT_GE(client.reconnects(), 2u) << "client must have failed over";
  ASSERT_TRUE(fingerprints_converge(gc, 10 * kSecond));
  EXPECT_EQ(gc.total_failed_cas(), 0u);
  for (NodeId id = 1; id < 3; ++id) {
    EXPECT_EQ(gc.store(id).get("x"), std::to_string(kSteps));
  }
  EXPECT_EQ(gc.check_invariants(), "");
}

// A slow-loris writer — a real socket trickling one valid frame a byte at a
// time — must not stall the replica: per-connection reader threads mean
// other clients keep completing commands while the loris frame is still
// arriving, and once it finally lands it executes (exactly once) and is
// answered on the loris connection.
TEST(GatewayTcp, SlowLorisWriterDoesNotStallOtherClients) {
  TcpGatewayCluster gc;
  auto eps = gc.endpoints();

  int loris_fd = ::socket(AF_INET, SOCK_STREAM, 0);
  ASSERT_GE(loris_fd, 0);
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(eps[0].port);
  ASSERT_EQ(::inet_pton(AF_INET, eps[0].host.c_str(), &addr.sin_addr), 1);
  ASSERT_EQ(::connect(loris_fd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)), 0);

  // One valid frame: hello + PUT, length-prefixed like any client.
  ClientFrame frame;
  ClientHello hello;
  hello.client_id = 61;
  frame.msgs.emplace_back(hello);
  frame.msgs.emplace_back(make_request(61, 1, KvStore::encode_put("loris", "done")));
  Bytes body = encode_client_frame(frame);
  Bytes wire;
  const std::uint32_t n = static_cast<std::uint32_t>(body.size());
  for (int i = 0; i < 4; ++i) wire.push_back(static_cast<std::uint8_t>(n >> (8 * i)));
  wire.insert(wire.end(), body.begin(), body.end());

  std::atomic<bool> loris_done{false};
  Thread loris([&] {
    for (std::uint8_t b : wire) {
      if (::send(loris_fd, &b, 1, MSG_NOSIGNAL) != 1) break;
      std::this_thread::sleep_for(std::chrono::milliseconds(4));
    }
    loris_done.store(true);
  });

  // A well-behaved client on the SAME replica runs a chain meanwhile.
  GatewayClient::Options opt;
  opt.client_id = 62;
  opt.endpoints = eps;
  opt.start_index = 0;
  GatewayClient client(opt);
  ASSERT_TRUE(client.call(KvStore::encode_put("x", "0")).ok);
  int before_loris_done = loris_done.load() ? 0 : 1;
  for (int i = 0; i < 10; ++i) {
    auto r = client.call(
        KvStore::encode_cas("x", std::to_string(i), std::to_string(i + 1)));
    ASSERT_TRUE(r.ok) << "cas " << i;
    ASSERT_EQ(str_of(r.reply), "OK") << "cas " << i;
    before_loris_done += !loris_done.load();
  }
  EXPECT_GT(before_loris_done, 0)
      << "chain never overlapped the loris frame; slow the trickle down";
  loris.join();

  // The trickled frame finally landed: the hello ack (session position 0)
  // and then the request's reply both come back on the loris connection.
  std::vector<ClientReply> replies;
  while (replies.size() < 2) {
    auto reply_frame = gateway_read_frame(loris_fd);
    ASSERT_TRUE(reply_frame.has_value())
        << "loris connection closed after " << replies.size() << " replies";
    for (const auto& msg : reply_frame->msgs) {
      replies.push_back(std::get<ClientReply>(msg));
    }
  }
  ASSERT_EQ(replies.size(), 2u);
  EXPECT_EQ(replies[0].client_id, 61u);
  EXPECT_EQ(replies[0].session_seq, 0u);  // hello ack: nothing executed yet
  EXPECT_EQ(replies[0].status, ClientStatus::kOk);
  EXPECT_EQ(replies[1].client_id, 61u);
  EXPECT_EQ(replies[1].session_seq, 1u);
  EXPECT_EQ(replies[1].status, ClientStatus::kOk);
  ::close(loris_fd);

  ASSERT_TRUE(fingerprints_converge(gc, 10 * kSecond));
  for (NodeId id = 0; id < 3; ++id) {
    EXPECT_EQ(gc.store(id).get("loris"), "done") << "node " << int(id);
  }
  EXPECT_EQ(gc.total_failed_cas(), 0u);
  EXPECT_EQ(gc.check_invariants(), "");
}

// A reply-path slow loris: a client pipelines writes and large reads but
// never reads a reply. Its outbox hits max_outbox_bytes and the server cuts
// the connection; the admission budget its requests held drains back to
// zero, and a well-behaved client on the same event loop keeps completing
// requests before, during and after the cut.
TEST(GatewayTcp, NonReadingClientIsCutAtOutboxCap) {
  TcpGatewayClusterConfig cfg;
  cfg.server.event_loops = 1;  // both clients share the one loop
  cfg.server.max_outbox_bytes = 64 * 1024;
  TcpGatewayCluster gc(cfg);
  auto eps = gc.endpoints();

  GatewayClient::Options opt;
  opt.client_id = 72;
  opt.endpoints = eps;
  opt.start_index = 0;
  GatewayClient good(opt);
  // Every GET of this key answers with 16 KiB. One burst's replies stay
  // under the cap, so the outbox overflows only once the unread backlog
  // has filled the socket buffers and kept growing.
  const std::string big(16 * 1024, 'v');
  ASSERT_TRUE(good.call(KvStore::encode_put("big", big)).ok);
  ASSERT_TRUE(good.call(KvStore::encode_put("x", "0")).ok);

  int loris_fd = ::socket(AF_INET, SOCK_STREAM, 0);
  ASSERT_GE(loris_fd, 0);
  int rcvbuf = 4096;
  ::setsockopt(loris_fd, SOL_SOCKET, SO_RCVBUF, &rcvbuf, sizeof(rcvbuf));
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(eps[0].port);
  ASSERT_EQ(::inet_pton(AF_INET, eps[0].host.c_str(), &addr.sin_addr), 1);
  ASSERT_EQ(::connect(loris_fd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)), 0);

  constexpr std::uint64_t kLoris = 71;
  int step = 0;
  auto good_step = [&] {
    auto r = good.call(
        KvStore::encode_cas("x", std::to_string(step), std::to_string(step + 1)));
    ASSERT_TRUE(r.ok) << "cas " << step;
    ASSERT_EQ(str_of(r.reply), "OK") << "cas " << step;
    ++step;
  };
  std::uint64_t seq = 0;
  bool cut = false;
  constexpr int kReadsPerBurst = 3;
  for (int burst = 0; burst < 1024 && !cut; ++burst) {
    ClientFrame frame;
    if (burst == 0) {
      ClientHello hello;
      hello.client_id = kLoris;
      frame.msgs.emplace_back(hello);
    }
    // Pipelined writes (they hold admission budget until delivered) and
    // reads whose replies nobody will ever collect.
    for (int i = 0; i < 2; ++i) {
      ++seq;
      frame.msgs.emplace_back(make_request(
          kLoris, seq, KvStore::encode_put("loris" + std::to_string(seq), "1")));
    }
    for (int i = 0; i < kReadsPerBurst; ++i) {
      ClientRead read;
      read.client_id = kLoris;
      read.read_seq = static_cast<std::uint64_t>(burst * kReadsPerBurst + i);
      read.query = make_payload(KvStore::encode_get("big"));
      frame.msgs.emplace_back(read);
    }
    cut = !gateway_write_frame(loris_fd, frame);
    good_step();
  }

  // The server drops the loris: only the well-behaved connection remains,
  // and every admitted byte is reclaimed.
  auto deadline = std::chrono::steady_clock::now() + std::chrono::seconds(20);
  while (gc.server(0).open_connections() != 1 || gc.total_admitted_bytes() != 0) {
    ASSERT_LT(std::chrono::steady_clock::now(), deadline)
        << "loris never cut: open=" << gc.server(0).open_connections()
        << " admitted=" << gc.total_admitted_bytes();
    std::this_thread::sleep_for(std::chrono::milliseconds(10));
  }
  for (int i = 0; i < 10; ++i) good_step();
  ::close(loris_fd);

  ASSERT_TRUE(fingerprints_converge(gc, 10 * kSecond));
  for (NodeId id = 0; id < cfg.n; ++id) {
    EXPECT_EQ(gc.store(id).get("x"), std::to_string(step)) << "node " << int(id);
  }
  EXPECT_EQ(gc.total_failed_cas(), 0u);
  EXPECT_EQ(gc.check_invariants(), "");
}

// The multiplexed pipelined driver end to end: 64 sessions over 4 sockets
// with 4 commands in flight each — the shape the big benchmark rows use —
// must complete every request exactly once and demonstrably batch.
TEST(GatewayTcp, MultiplexedPipelinedDriverExactlyOnce) {
  TcpGatewayCluster gc;
  DriverOptions opt;
  opt.endpoints = gc.endpoints();
  opt.clients = 64;
  opt.requests_per_client = 30;
  opt.connections = 4;
  opt.pipeline = 4;
  opt.value_bytes = 32;

  DriverReport r = run_client_driver(opt);
  EXPECT_EQ(r.failures, 0u);
  EXPECT_EQ(r.requests, 64u * 30u);

  ASSERT_TRUE(fingerprints_converge(gc, 10 * kSecond));
  auto counters = gc.gateway_counters();
  EXPECT_EQ(counters.commands_applied, 64u * 30u * 3);
  EXPECT_GE(counters.coalesced_envelopes, 64u * 30u);
  EXPECT_LT(counters.coalesce_flushes, counters.coalesced_envelopes)
      << "pipelined frames never shared a broadcast envelope";
  EXPECT_EQ(gc.check_invariants(), "");
}

// Reconnect storm at the epoll front-end: 1024 short-lived sessions arrive
// in waves of raw sockets, each sending hello + one PUT on a fresh
// connection; half vanish without reading their replies. Throughout, file
// descriptors and the admission gauge stay bounded; afterwards every
// connection, owned binding, and admitted byte is reclaimed, the orphaned
// replies are counted, and the replicas converge on all 1024 writes.
TEST(GatewayTcp, ReconnectStormBoundedFdsAndAdmission) {
  TcpGatewayClusterConfig cfg;
  TcpGatewayCluster gc(cfg);
  auto eps = gc.endpoints();

  auto count_fds = [] {
    std::size_t n = 0;
    for (auto it = std::filesystem::directory_iterator("/proc/self/fd");
         it != std::filesystem::directory_iterator(); ++it) {
      ++n;
    }
    return n;
  };
  const std::size_t fd_baseline = count_fds();

  constexpr std::size_t kSessions = 1024;
  constexpr std::size_t kWave = 128;
  const std::uint64_t byte_ceiling =
      static_cast<std::uint64_t>(cfg.gateway.admitted_bytes_budget) * cfg.n;

  std::size_t max_fds_seen = 0;
  std::uint64_t max_admitted_seen = 0;
  for (std::size_t wave = 0; wave < kSessions / kWave; ++wave) {
    std::vector<int> fds;
    fds.reserve(kWave);
    for (std::size_t i = 0; i < kWave; ++i) {
      const std::size_t idx = wave * kWave + i;
      const auto& ep = eps[idx % eps.size()];
      int fd = ::socket(AF_INET, SOCK_STREAM, 0);
      ASSERT_GE(fd, 0);
      sockaddr_in addr{};
      addr.sin_family = AF_INET;
      addr.sin_port = htons(ep.port);
      ASSERT_EQ(::inet_pton(AF_INET, ep.host.c_str(), &addr.sin_addr), 1);
      ASSERT_EQ(::connect(fd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)), 0)
          << "session " << idx;
      const std::uint64_t client = 5000 + idx;
      ClientFrame frame;
      ClientHello hello;
      hello.client_id = client;
      frame.msgs.emplace_back(hello);
      frame.msgs.emplace_back(make_request(
          client, 1, KvStore::encode_put("storm" + std::to_string(idx), "1")));
      ASSERT_TRUE(gateway_write_frame(fd, frame)) << "session " << idx;
      // Even sessions slam the connection shut the instant the frame is on
      // the wire — replies are still owed, which is the orphan path under
      // real socket teardown. Odd ones stay to read their replies.
      if (i % 2 == 0) {
        ::close(fd);
      } else {
        fds.push_back(fd);
      }
    }

    max_fds_seen = std::max(max_fds_seen, count_fds());
    max_admitted_seen = std::max(max_admitted_seen, gc.total_admitted_bytes());

    for (std::size_t i = 0; i < fds.size(); ++i) {
      timeval tv{};
      tv.tv_sec = 10;
      ::setsockopt(fds[i], SOL_SOCKET, SO_RCVTIMEO, &tv, sizeof(tv));
      std::size_t replies = 0;
      while (replies < 2) {
        auto reply_frame = gateway_read_frame(fds[i]);
        ASSERT_TRUE(reply_frame.has_value())
            << "wave " << wave << " session " << i << " reply " << replies;
        replies += reply_frame->msgs.size();
      }
      ::close(fds[i]);
    }
  }

  // Every wave fit in its own socket allowance on top of the quiescent
  // service. Both ends of each connection live in this process (the cluster
  // is in-process), so a wave costs up to 2x its sockets; the slack covers
  // reply-path eventfds and test-runner noise.
  EXPECT_LE(max_fds_seen, fd_baseline + 2 * kWave + 64)
      << "file descriptors accumulated across waves";
  EXPECT_LE(max_admitted_seen, byte_ceiling)
      << "admission gauge exceeded the configured budget";

  // Quiesce: connections, owned bindings, and admitted bytes all drain to
  // zero once the storm stops.
  auto deadline = std::chrono::steady_clock::now() + std::chrono::seconds(20);
  for (;;) {
    std::size_t open = 0;
    for (NodeId id = 0; id < cfg.n; ++id) open += gc.server(id).open_connections();
    if (open == 0 && gc.total_owned_sessions() == 0 &&
        gc.total_admitted_bytes() == 0) {
      break;
    }
    ASSERT_LT(std::chrono::steady_clock::now(), deadline)
        << "storm state never drained: open=" << open
        << " owned=" << gc.total_owned_sessions()
        << " admitted=" << gc.total_admitted_bytes();
    std::this_thread::sleep_for(std::chrono::milliseconds(20));
  }
  EXPECT_LE(count_fds(), fd_baseline + 16) << "fds leaked after quiesce";

  ASSERT_TRUE(fingerprints_converge(gc, 10 * kSecond));
  auto counters = gc.gateway_counters();
  EXPECT_EQ(counters.commands_applied, kSessions * cfg.n)
      << "every storm PUT must execute exactly once per replica";
  EXPECT_GT(counters.orphaned_reply_drops, 0u)
      << "half the storm vanished before its replies; drops must be counted";
  EXPECT_EQ(gc.check_invariants(), "");
}

}  // namespace
}  // namespace fsr
