// CLI option-parsing tests: the string->enum vocabulary, policy combos,
// full command lines, override plumbing into SimConfig, and diagnostics;
// the shared flag parser and the tool and bench tables.
#include <gtest/gtest.h>

#include <algorithm>
#include <sstream>
#include <type_traits>
#include <utility>
#include <vector>

#include "cli/options.hpp"

namespace llamcat {
namespace {

ParseResult parse(std::initializer_list<std::string_view> args) {
  return parse_cli_options(std::vector<std::string_view>(args));
}

// ------------------------------------------------------------ vocabulary --

TEST(OptionVocabulary, ArbPolicies) {
  EXPECT_EQ(parse_enum<ArbPolicy>("fcfs"), ArbPolicy::kFcfs);
  EXPECT_EQ(parse_enum<ArbPolicy>("B"), ArbPolicy::kBalanced);
  EXPECT_EQ(parse_enum<ArbPolicy>("balanced"), ArbPolicy::kBalanced);
  EXPECT_EQ(parse_enum<ArbPolicy>("MA"), ArbPolicy::kMa);
  EXPECT_EQ(parse_enum<ArbPolicy>("BMA"), ArbPolicy::kBma);
  EXPECT_EQ(parse_enum<ArbPolicy>("bma"), ArbPolicy::kBma);
  EXPECT_EQ(parse_enum<ArbPolicy>("cobrra"), ArbPolicy::kCobrra);
  EXPECT_EQ(parse_enum<ArbPolicy>("mrpb"), ArbPolicy::kMrpb);
  EXPECT_EQ(parse_enum<ArbPolicy>("oracle"), ArbPolicy::kOracle);
  EXPECT_EQ(parse_enum<ArbPolicy>("random"), ArbPolicy::kRandom);
  EXPECT_FALSE(parse_enum<ArbPolicy>("nope").has_value());
}

TEST(OptionVocabulary, ThrottlePolicies) {
  EXPECT_EQ(parse_enum<ThrottlePolicy>("unopt"), ThrottlePolicy::kNone);
  EXPECT_EQ(parse_enum<ThrottlePolicy>("none"), ThrottlePolicy::kNone);
  EXPECT_EQ(parse_enum<ThrottlePolicy>("dyncta"), ThrottlePolicy::kDyncta);
  EXPECT_EQ(parse_enum<ThrottlePolicy>("lcs"), ThrottlePolicy::kLcs);
  EXPECT_EQ(parse_enum<ThrottlePolicy>("dynmg"), ThrottlePolicy::kDynMg);
  EXPECT_FALSE(parse_enum<ThrottlePolicy>("DYNMG").has_value());
}

TEST(OptionVocabulary, EnumsRoundTripWithToString) {
  for (ArbPolicy p : {ArbPolicy::kFcfs, ArbPolicy::kCobrra, ArbPolicy::kMrpb,
                      ArbPolicy::kOracle, ArbPolicy::kRandom}) {
    EXPECT_EQ(parse_enum<ArbPolicy>(to_string(p)), p) << to_string(p);
  }
  for (ReplPolicy p : {ReplPolicy::kLru, ReplPolicy::kRandom,
                       ReplPolicy::kSrrip, ReplPolicy::kFifo}) {
    EXPECT_EQ(parse_enum<ReplPolicy>(to_string(p)), p) << to_string(p);
  }
  for (RespArbPolicy p :
       {RespArbPolicy::kResponseFirst, RespArbPolicy::kRequestFirst}) {
    EXPECT_EQ(parse_enum<RespArbPolicy>(to_string(p)), p);
  }
  // Every name in every table parses to its value, and so does each
  // value's canonical name.
  const auto round_trips = [](auto table) {
    for (const auto& row : table) {
      using E = std::remove_cvref_t<decltype(row.value)>;
      EXPECT_EQ(parse_enum<E>(to_string(row.value)), row.value) << row.name;
      EXPECT_EQ(parse_enum<E>(row.name), row.value) << row.name;
    }
  };
  round_trips(enum_names(ArbPolicy{}));
  round_trips(enum_names(RespArbPolicy{}));
  round_trips(enum_names(ThrottlePolicy{}));
  round_trips(enum_names(TbDispatch{}));
  round_trips(enum_names(RequestDispatch{}));
  round_trips(enum_names(ExecutionMode{}));
  round_trips(enum_names(AdmitPolicy{}));
  round_trips(enum_names(KvEvictPolicy{}));
  round_trips(enum_names(TrafficProcess{}));
  round_trips(enum_names(TrafficDist{}));
  round_trips(enum_names(BypassPolicy{}));
  round_trips(enum_names(ReplPolicy{}));
  round_trips(enum_names(InsertPolicy{}));
  round_trips(enum_names(FuseOrder{}));
}

TEST(OptionVocabulary, Models) {
  EXPECT_EQ(model_from_string("llama3-70b")->group_size, 8u);
  EXPECT_EQ(model_from_string("405b")->group_size, 16u);
  EXPECT_EQ(model_from_string("llama3-8b")->group_size, 4u);
  EXPECT_EQ(model_from_string("gemma2-27b")->num_kv_heads, 16u);
  EXPECT_FALSE(model_from_string("gpt-7").has_value());
}

TEST(OptionVocabulary, PolicyCombos) {
  auto c = policy_combo_from_string("dynmg+BMA");
  ASSERT_TRUE(c.has_value());
  EXPECT_EQ(c->throttle, ThrottlePolicy::kDynMg);
  EXPECT_EQ(c->arb, ArbPolicy::kBma);

  c = policy_combo_from_string("dyncta");
  ASSERT_TRUE(c.has_value());
  EXPECT_EQ(c->throttle, ThrottlePolicy::kDyncta);
  EXPECT_EQ(c->arb, ArbPolicy::kFcfs);

  c = policy_combo_from_string("BMA");  // bare arbitration
  ASSERT_TRUE(c.has_value());
  EXPECT_EQ(c->throttle, ThrottlePolicy::kNone);
  EXPECT_EQ(c->arb, ArbPolicy::kBma);

  c = policy_combo_from_string("unopt+MA");
  ASSERT_TRUE(c.has_value());
  EXPECT_EQ(c->arb, ArbPolicy::kMa);

  EXPECT_FALSE(policy_combo_from_string("dynmg+xyz").has_value());
  EXPECT_FALSE(policy_combo_from_string("foo+BMA").has_value());
  EXPECT_FALSE(policy_combo_from_string("").has_value());
}

// ---------------------------------------------------------- full parsing --

TEST(ParseCli, DefaultsAreTable5) {
  const ParseResult r = parse({});
  ASSERT_TRUE(r.ok());
  const SimConfig t5 = SimConfig::table5();
  EXPECT_EQ(r.options->cfg.core.num_cores, t5.core.num_cores);
  EXPECT_EQ(r.options->cfg.llc.size_bytes, t5.llc.size_bytes);
  EXPECT_EQ(r.options->op, "logit");
  EXPECT_EQ(r.options->seq_len, 4096u);
}

TEST(ParseCli, WorkloadFlags) {
  const ParseResult r = parse({"--model=llama3-405b", "--op=attend",
                               "--seq=16384"});
  ASSERT_TRUE(r.ok());
  EXPECT_EQ(r.options->model.name, "llama3-405b");
  EXPECT_EQ(r.options->op, "attend");
  EXPECT_EQ(r.options->seq_len, 16384u);
}

TEST(ParseCli, PolicyComboSetsBothKnobs) {
  const ParseResult r = parse({"--policy=dynmg+BMA"});
  ASSERT_TRUE(r.ok());
  EXPECT_EQ(r.options->cfg.throttle.policy, ThrottlePolicy::kDynMg);
  EXPECT_EQ(r.options->cfg.arb.policy, ArbPolicy::kBma);
}

TEST(ParseCli, CobrraImpliesRequestFirstArbitration) {
  const ParseResult r = parse({"--policy=unopt+cobrra"});
  ASSERT_TRUE(r.ok());
  EXPECT_EQ(r.options->cfg.llc.resp_arb, RespArbPolicy::kRequestFirst);
  // An explicit --resp-arb wins in either order.
  for (const auto& args :
       {std::vector<std::string_view>{"--resp-arb=response-first",
                                      "--policy=unopt+cobrra"},
        std::vector<std::string_view>{"--policy=unopt+cobrra",
                                      "--resp-arb=response-first"}}) {
    const ParseResult both = parse_cli_options(args);
    ASSERT_TRUE(both.ok()) << both.error;
    EXPECT_EQ(both.options->cfg.arb.policy, ArbPolicy::kCobrra);
    EXPECT_EQ(both.options->cfg.llc.resp_arb, RespArbPolicy::kResponseFirst)
        << args[0];
  }
}

TEST(ParseCli, MachineOverrides) {
  const ParseResult r =
      parse({"--cores=8", "--llc-mb=32", "--slices=4", "--mshr-entries=12",
             "--mshr-targets=4", "--repl=srrip", "--dispatch=wave",
             "--seed=99"});
  ASSERT_TRUE(r.ok());
  const SimConfig& cfg = r.options->cfg;
  EXPECT_EQ(cfg.core.num_cores, 8u);
  EXPECT_EQ(cfg.llc.size_bytes, 32ull << 20);
  EXPECT_EQ(cfg.llc.num_slices, 4u);
  EXPECT_EQ(cfg.llc.mshr_entries, 12u);
  EXPECT_EQ(cfg.llc.mshr_targets, 4u);
  EXPECT_EQ(cfg.llc.repl, ReplPolicy::kSrrip);
  EXPECT_EQ(cfg.core.tb_dispatch, TbDispatch::kPartitionedStealing);
  EXPECT_EQ(cfg.seed, 99u);
}

TEST(ParseCli, BypassFlags) {
  const ParseResult r = parse({"--bypass=prob", "--bypass-keep-p=0.75"});
  ASSERT_TRUE(r.ok());
  EXPECT_EQ(r.options->cfg.llc.bypass.policy, BypassPolicy::kProbabilistic);
  EXPECT_DOUBLE_EQ(r.options->cfg.llc.bypass.keep_probability, 0.75);
}

TEST(ParseCli, OutputFlags) {
  const ParseResult r = parse({"--csv=out.csv", "--json=out.json",
                               "--counters", "--energy", "--verbose"});
  ASSERT_TRUE(r.ok());
  EXPECT_EQ(r.options->csv_path, "out.csv");
  EXPECT_EQ(r.options->json_path, "out.json");
  EXPECT_TRUE(r.options->print_counters);
  EXPECT_TRUE(r.options->print_energy);
  EXPECT_TRUE(r.options->verbose);
}

TEST(ParseCli, HelpShortCircuits) {
  EXPECT_TRUE(parse({"--help"}).help_requested);
  EXPECT_TRUE(parse({"-h"}).help_requested);
  EXPECT_FALSE(parse({"--help"}).ok());
}

// ----------------------------------------------------------- batch flags --

TEST(ParseCli, BatchFlagsParse) {
  const ParseResult r = parse({"--op=batch", "--requests=4", "--layers=3",
                               "--seqs=256,512,1024", "--no-gemv"});
  ASSERT_TRUE(r.ok()) << r.error;
  EXPECT_EQ(r.options->op, "batch");
  EXPECT_EQ(r.options->batch_requests, 4u);
  EXPECT_EQ(r.options->pass.num_layers, 3u);
  EXPECT_EQ(r.options->batch_seq_lens,
            (std::vector<std::uint64_t>{256, 512, 1024}));
  EXPECT_FALSE(r.options->pass.include_gemv);
}

TEST(ParseCli, BatchDefaults) {
  const ParseResult r = parse({"--op=batch"});
  ASSERT_TRUE(r.ok()) << r.error;
  EXPECT_EQ(r.options->batch_requests, 2u);
  EXPECT_EQ(r.options->pass.num_layers, 2u);
  EXPECT_TRUE(r.options->batch_seq_lens.empty());
  EXPECT_TRUE(r.options->pass.include_gemv);
  EXPECT_EQ(r.options->pass.mode, ExecutionMode::kIndependent);
  EXPECT_EQ(r.options->pass.interleave, FuseOrder::kRoundRobin);
  EXPECT_EQ(r.options->cfg.core.request_dispatch, RequestDispatch::kShared);
}

TEST(ParseCli, ExecutionModeFlagsParse) {
  const ParseResult r =
      parse({"--op=batch", "--mode=coscheduled", "--interleave=concat",
             "--req-dispatch=partitioned"});
  ASSERT_TRUE(r.ok()) << r.error;
  EXPECT_EQ(r.options->pass.mode, ExecutionMode::kCoScheduled);
  EXPECT_EQ(r.options->pass.interleave, FuseOrder::kConcat);
  EXPECT_EQ(r.options->cfg.core.request_dispatch,
            RequestDispatch::kPartitioned);

  EXPECT_FALSE(parse({"--mode=fused"}).ok());
  EXPECT_FALSE(parse({"--interleave=zipper"}).ok());
  EXPECT_FALSE(parse({"--req-dispatch=pinned"}).ok());
}

TEST(ParseCli, MalformedBatchFlagsAreErrors) {
  EXPECT_FALSE(parse({"--requests=0"}).ok());
  EXPECT_FALSE(parse({"--layers=x"}).ok());
  EXPECT_FALSE(parse({"--seqs="}).ok());
  EXPECT_FALSE(parse({"--seqs=256,,512"}).ok());
  EXPECT_FALSE(parse({"--seqs=256,"}).ok());
  EXPECT_FALSE(parse({"--seqs=256,0"}).ok());
  EXPECT_FALSE(parse({"--seqs=256,abc"}).ok());
  // Diagnostics name the flag and echo the offending value.
  const ParseResult r = parse({"--requests=99999999999999999999"});
  ASSERT_FALSE(r.ok());
  EXPECT_NE(r.error.find("--requests"), std::string::npos);
  EXPECT_NE(r.error.find("99999999999999999999"), std::string::npos);
}

TEST(ParseCli, ContinuousModeFlagsParse) {
  const ParseResult r =
      parse({"--op=batch", "--mode=continuous", "--seqs=4096,512,512",
             "--arrivals=0,0,200000", "--steps=2"});
  ASSERT_TRUE(r.ok()) << r.error;
  EXPECT_EQ(r.options->pass.mode, ExecutionMode::kContinuous);
  EXPECT_EQ(r.options->batch_arrivals,
            (std::vector<std::uint64_t>{0, 0, 200000}));
  EXPECT_EQ(r.options->batch_steps, (std::vector<std::uint64_t>{2}));
}

TEST(ParseCli, ArrivalsRequireContinuousMode) {
  const ParseResult r =
      parse({"--op=batch", "--mode=coscheduled", "--arrivals=0,100"});
  ASSERT_FALSE(r.ok());
  EXPECT_NE(r.error.find("--arrivals"), std::string::npos);
  EXPECT_NE(r.error.find("continuous"), std::string::npos);
  // Zero-arrival entries are fine (unlike --seqs / --steps).
  EXPECT_TRUE(
      parse({"--op=batch", "--mode=continuous", "--arrivals=0,0"}).ok());
  EXPECT_FALSE(parse({"--op=batch", "--mode=continuous", "--steps=0"}).ok());
  // Step counts are stored as uint32 downstream: out-of-range values are
  // rejected here, not silently truncated.
  const ParseResult big =
      parse({"--op=batch", "--mode=continuous", "--steps=4294967297"});
  ASSERT_FALSE(big.ok());
  EXPECT_NE(big.error.find("32-bit"), std::string::npos);
}

TEST(ParseCli, ServingPolicyFlagsParse) {
  EXPECT_EQ(parse_enum<AdmitPolicy>("none"), AdmitPolicy::kNone);
  EXPECT_EQ(parse_enum<AdmitPolicy>("fcfs"), AdmitPolicy::kFcfs);
  EXPECT_EQ(parse_enum<AdmitPolicy>("srf"), AdmitPolicy::kShortestRemaining);
  EXPECT_EQ(parse_enum<AdmitPolicy>("shortest-remaining"),
            AdmitPolicy::kShortestRemaining);
  EXPECT_FALSE(parse_enum<AdmitPolicy>("lifo").has_value());

  const ParseResult r =
      parse({"--op=batch", "--mode=continuous", "--seqs=4096,512",
             "--admit-policy=srf", "--kv-budget=37748736", "--preempt"});
  ASSERT_TRUE(r.ok()) << r.error;
  EXPECT_EQ(r.options->pass.serving.policy, AdmitPolicy::kShortestRemaining);
  EXPECT_EQ(r.options->pass.serving.kv_budget_bytes, 37748736u);
  EXPECT_TRUE(r.options->pass.serving.preempt);
  // Defaults: unconditional admission, unlimited budget, no preemption.
  const ParseResult d = parse({"--op=batch", "--mode=continuous"});
  ASSERT_TRUE(d.ok());
  EXPECT_EQ(d.options->pass.serving.policy, AdmitPolicy::kNone);
  EXPECT_EQ(d.options->pass.serving.kv_budget_bytes, 0u);
  EXPECT_FALSE(d.options->pass.serving.preempt);
}

TEST(ParseCli, ServingPolicyFlagsCrossChecked) {
  // The serving layer only exists in continuous mode.
  const ParseResult barrier =
      parse({"--op=batch", "--mode=coscheduled", "--admit-policy=fcfs"});
  ASSERT_FALSE(barrier.ok());
  EXPECT_NE(barrier.error.find("--admit-policy"), std::string::npos);
  EXPECT_NE(barrier.error.find("continuous"), std::string::npos);
  // A budget or preemption without a queueing discipline is contradictory.
  const ParseResult budget =
      parse({"--op=batch", "--mode=continuous", "--kv-budget=1048576"});
  ASSERT_FALSE(budget.ok());
  EXPECT_NE(budget.error.find("--kv-budget"), std::string::npos);
  EXPECT_NE(budget.error.find("--admit-policy"), std::string::npos);
  EXPECT_FALSE(parse({"--op=batch", "--mode=continuous", "--preempt"}).ok());
  EXPECT_FALSE(parse({"--admit-policy=fifo"}).ok());
  EXPECT_FALSE(parse({"--kv-budget=abc"}).ok());
  // Unlimited budget with a discipline is fine (pure queue-order study).
  EXPECT_TRUE(parse({"--op=batch", "--mode=continuous",
                     "--admit-policy=fcfs"})
                  .ok());
}

TEST(ParseCli, PagedEvictionFlagsParse) {
  EXPECT_EQ(parse_enum<KvEvictPolicy>("none"), KvEvictPolicy::kNone);
  EXPECT_EQ(parse_enum<KvEvictPolicy>("cold-blocks"),
            KvEvictPolicy::kColdBlocks);
  EXPECT_EQ(parse_enum<KvEvictPolicy>("cold"), KvEvictPolicy::kColdBlocks);
  EXPECT_FALSE(parse_enum<KvEvictPolicy>("hot-blocks").has_value());

  const ParseResult r = parse(
      {"--op=batch", "--mode=continuous", "--seqs=4096,512",
       "--admit-policy=srf", "--kv-budget=37748736", "--preempt",
       "--kv-evict=cold-blocks", "--kv-block-bytes=4096", "--refetch-cost=4"});
  ASSERT_TRUE(r.ok()) << r.error;
  EXPECT_EQ(r.options->pass.serving.kv_evict, KvEvictPolicy::kColdBlocks);
  EXPECT_EQ(r.options->pass.serving.kv_block_bytes, 4096u);
  EXPECT_EQ(r.options->pass.serving.refetch_cost, 4u);
  // Defaults: resident preemption, line-granule blocks, modeled host link.
  const ParseResult d = parse({"--op=batch", "--mode=continuous",
                               "--admit-policy=fcfs", "--kv-budget=1048576",
                               "--preempt"});
  ASSERT_TRUE(d.ok());
  EXPECT_EQ(d.options->pass.serving.kv_evict, KvEvictPolicy::kNone);
  EXPECT_EQ(d.options->pass.serving.kv_block_bytes, 0u);
  EXPECT_EQ(d.options->pass.serving.refetch_cost, 0u);
}

TEST(ParseCli, PagedEvictionFlagsCrossChecked) {
  // Eviction without preemption: nothing would ever be swapped out.
  const ParseResult no_pre =
      parse({"--op=batch", "--mode=continuous", "--admit-policy=fcfs",
             "--kv-budget=1048576", "--kv-evict=cold-blocks"});
  ASSERT_FALSE(no_pre.ok());
  EXPECT_NE(no_pre.error.find("--kv-evict"), std::string::npos);
  EXPECT_NE(no_pre.error.find("--preempt"), std::string::npos);
  // Eviction without a finite budget: no pressure to relieve.
  const ParseResult no_budget =
      parse({"--op=batch", "--mode=continuous", "--admit-policy=fcfs",
             "--preempt", "--kv-evict=cold-blocks"});
  ASSERT_FALSE(no_budget.ok());
  EXPECT_NE(no_budget.error.find("--kv-budget"), std::string::npos);
  // The paging knobs only exist under cold-blocks.
  EXPECT_FALSE(parse({"--op=batch", "--mode=continuous",
                      "--admit-policy=fcfs", "--kv-budget=1048576",
                      "--preempt", "--kv-block-bytes=4096"})
                   .ok());
  EXPECT_FALSE(parse({"--op=batch", "--mode=continuous",
                      "--admit-policy=fcfs", "--kv-budget=1048576",
                      "--preempt", "--refetch-cost=4"})
                   .ok());
  // Malformed values: non-line-multiple blocks, zero/garbage costs.
  EXPECT_FALSE(parse({"--kv-evict=lru"}).ok());
  EXPECT_FALSE(parse({"--kv-block-bytes=100"}).ok());
  EXPECT_FALSE(parse({"--kv-block-bytes=0"}).ok());
  EXPECT_FALSE(parse({"--refetch-cost=0"}).ok());
  EXPECT_FALSE(parse({"--refetch-cost=abc"}).ok());
}

TEST(ParseCli, KvShareFlagsParse) {
  const ParseResult r = parse(
      {"--op=batch", "--mode=continuous", "--seqs=512,512,256",
       "--kv-share=on", "--prefix-groups=0,0,1", "--prefix-tokens=128,128,64"});
  ASSERT_TRUE(r.ok()) << r.error;
  EXPECT_TRUE(r.options->pass.serving.kv_share);
  EXPECT_EQ(r.options->batch_prefix_groups,
            (std::vector<std::uint64_t>{0, 0, 1}));
  EXPECT_EQ(r.options->batch_prefix_tokens,
            (std::vector<std::uint64_t>{128, 128, 64}));
  // Broadcast + a 0-token private member.
  EXPECT_TRUE(parse({"--op=batch", "--mode=continuous", "--seqs=512,512,256",
                     "--kv-share=on", "--prefix-groups=0",
                     "--prefix-tokens=128,128,0"})
                  .ok());
  // Sharing without groups is valid (everything private, counters zero).
  const ParseResult plain =
      parse({"--op=batch", "--mode=continuous", "--kv-share=on"});
  ASSERT_TRUE(plain.ok()) << plain.error;
  EXPECT_TRUE(plain.options->pass.serving.kv_share);
  // --kv-block-bytes gains a second consumer: the share granule.
  EXPECT_TRUE(parse({"--op=batch", "--mode=continuous", "--kv-share=on",
                     "--kv-block-bytes=4096"})
                  .ok());
  // Default is off.
  const ParseResult off = parse({"--op=batch", "--mode=continuous"});
  ASSERT_TRUE(off.ok());
  EXPECT_FALSE(off.options->pass.serving.kv_share);
}

TEST(ParseCli, KvShareFlagsCrossChecked) {
  // Sharing is a serving-time construct: continuous only.
  const ParseResult barrier =
      parse({"--op=batch", "--mode=coscheduled", "--kv-share=on"});
  ASSERT_FALSE(barrier.ok());
  EXPECT_NE(barrier.error.find("--kv-share"), std::string::npos);
  EXPECT_NE(barrier.error.find("continuous"), std::string::npos);
  // Prefix identity without sharing is dead configuration.
  EXPECT_FALSE(parse({"--op=batch", "--mode=continuous",
                      "--prefix-groups=0,0"})
                   .ok());
  EXPECT_FALSE(parse({"--op=batch", "--mode=continuous",
                      "--prefix-tokens=64"})
                   .ok());
  // The two prefix flags require each other.
  EXPECT_FALSE(parse({"--op=batch", "--mode=continuous", "--kv-share=on",
                      "--prefix-groups=0,0"})
                   .ok());
  EXPECT_FALSE(parse({"--op=batch", "--mode=continuous", "--kv-share=on",
                      "--prefix-tokens=64,64"})
                   .ok());
  // Arity follows the batch size; malformed values are rejected.
  EXPECT_FALSE(parse({"--op=batch", "--mode=continuous", "--seqs=64,128",
                      "--kv-share=on", "--prefix-groups=0,0,0",
                      "--prefix-tokens=16"})
                   .ok());
  EXPECT_FALSE(parse({"--kv-share=maybe"}).ok());
  EXPECT_FALSE(parse({"--prefix-groups=a,b"}).ok());
  // Group ids must leave room for the no-group sentinel.
  EXPECT_FALSE(parse({"--op=batch", "--mode=continuous", "--kv-share=on",
                      "--prefix-groups=4294967295", "--prefix-tokens=16"})
                   .ok());
  // --kv-block-bytes still needs at least one consumer.
  EXPECT_FALSE(parse({"--op=batch", "--mode=continuous",
                      "--kv-block-bytes=4096"})
                   .ok());
}

TEST(ParseCli, ArrivalsAndStepsArityChecked) {
  // 3 entries vs 2 requests: rejected with both numbers in the message.
  const ParseResult r = parse({"--op=batch", "--mode=continuous",
                               "--requests=2", "--arrivals=0,1,2"});
  ASSERT_FALSE(r.ok());
  EXPECT_NE(r.error.find("3 entries"), std::string::npos);
  EXPECT_NE(r.error.find("2 requests"), std::string::npos);
  EXPECT_FALSE(parse({"--op=batch", "--requests=2", "--steps=1,2,3"}).ok());
  // Arity follows --seqs when it overrides --requests, and one entry
  // broadcasts.
  EXPECT_TRUE(parse({"--op=batch", "--mode=continuous", "--seqs=64,128,256",
                     "--arrivals=0,5,9", "--steps=4"})
                  .ok());
  EXPECT_TRUE(
      parse({"--op=batch", "--mode=continuous", "--requests=8", "--arrivals=5"})
          .ok());
}

// ------------------------------------------------------------ diagnostics --

TEST(ParseCli, UnknownFlagIsAnError) {
  const ParseResult r = parse({"--frobnicate=1"});
  EXPECT_FALSE(r.ok());
  EXPECT_NE(r.error.find("frobnicate"), std::string::npos);
}

TEST(ParseCli, MalformedNumbersAreErrors) {
  EXPECT_FALSE(parse({"--seq=12abc"}).ok());
  EXPECT_FALSE(parse({"--seq=0"}).ok());
  EXPECT_FALSE(parse({"--cores=x"}).ok());
  EXPECT_FALSE(parse({"--bypass-keep-p=1.5"}).ok());
  // The LLC byte count must fit 64 bits: 2^44 MiB wraps to 0 bytes and
  // 2^44 + 1 MiB to 1 MiB.
  EXPECT_FALSE(parse({"--llc-mb=17592186044416"}).ok());
  EXPECT_FALSE(parse({"--llc-mb=17592186044417"}).ok());
  EXPECT_TRUE(parse({"--llc-mb=64"}).ok());
  // Doubles must be finite: NaN slips through every `x < lo || x > hi`.
  for (const char* bad : {"nan", "NaN", "inf", "-inf", "infinity", "1e999"}) {
    const std::string keep = std::string("--bypass-keep-p=") + bad;
    const std::string zipf = std::string("--traffic-zipf=") + bad;
    const std::string sigma = std::string("--traffic-sigma=") + bad;
    EXPECT_FALSE(parse({"--bypass=prob", keep}).ok()) << bad;
    EXPECT_FALSE(parse({"--op=batch", "--mode=continuous", "--traffic=poisson",
                        zipf})
                     .ok())
        << bad;
    EXPECT_FALSE(parse({"--op=batch", "--mode=continuous", "--traffic=poisson",
                        sigma})
                     .ok())
        << bad;
  }
}

TEST(ParseCli, PositionalArgumentsRejected) {
  EXPECT_FALSE(parse({"llama3"}).ok());
  // Switches take no value and value flags need one.
  EXPECT_FALSE(parse({"--counters=1"}).ok());
  EXPECT_FALSE(parse({"--help=yes"}).ok());
  EXPECT_FALSE(parse({"--seq"}).ok());
  EXPECT_FALSE(parse({"--"}).ok());
}

TEST(ParseCli, AuditSwitchArmsTheAuditor) {
  EXPECT_FALSE(parse({"--op=batch", "--mode=continuous"}).options->pass.audit);
  const ParseResult r = parse({"--op=batch", "--mode=continuous", "--audit"});
  ASSERT_TRUE(r.ok()) << r.error;
  EXPECT_TRUE(r.options->pass.audit);
  EXPECT_FALSE(parse({"--op=batch", "--mode=continuous", "--audit=1"}).ok());
  // The barrier modes have no serving events to audit.
  const ParseResult barrier = parse({"--op=batch", "--audit"});
  ASSERT_FALSE(barrier.ok());
  EXPECT_NE(barrier.error.find("--audit requires --mode=continuous"),
            std::string::npos);
}

TEST(ParseCli, InvalidGeometryCaughtByValidate) {
  // Three slices: not a power of two -> SimConfig::validate rejects.
  const ParseResult r = parse({"--slices=3"});
  EXPECT_FALSE(r.ok());
  EXPECT_NE(r.error.find("invalid configuration"), std::string::npos);
}

TEST(ParseCli, UsageMentionsEveryFlag) {
  const std::string usage = cli_usage();
  for (const char* flag :
       {"--model", "--op", "--seq", "--policy", "--resp-arb", "--dispatch",
        "--cores", "--llc-mb", "--slices", "--mshr-entries", "--mshr-targets",
        "--repl", "--bypass", "--seed", "--csv", "--json", "--counters",
        "--energy", "--verbose", "--requests", "--layers", "--seqs",
        "--no-gemv", "--mode", "--interleave", "--req-dispatch",
        "--arrivals", "--steps", "--admit-policy", "--kv-budget", "--preempt",
        "--kv-evict", "--kv-block-bytes", "--refetch-cost", "--traffic",
        "--traffic-seed", "--traffic-gap", "--traffic-seq",
        "--traffic-seq-dist", "--traffic-sigma", "--traffic-steps",
        "--traffic-groups", "--traffic-zipf", "--traffic-share-pct",
        "--trace-out", "--trace-in", "--digest", "--audit"}) {
    EXPECT_NE(usage.find(flag), std::string::npos) << flag;
  }
}

TEST(ParseCli, UsageIsByteIdenticalToGolden) {
  // `llamcat_cli --help`, byte for byte. After an intentional change to a
  // flag or its help, regenerate from the repo root:
  //   { printf 'R"usage('; ./build/llamcat_cli --help;
  //     printf ')usage"\n'; } > tests/golden_cli_usage.inc
  const std::string golden =
#include "golden_cli_usage.inc"
      ;
  EXPECT_EQ(cli_usage(), golden);
}

TEST(ParseCli, MalformedValueErrorsNameFlagAndValue) {
  // One malformed value per value-taking flag (paths take any string).
  const std::vector<std::pair<std::string_view, std::string_view>> bad = {
      {"model", "gpt-7"},
      {"op", "train"},
      {"seq", "0"},
      {"gemv-rows", "-1"},
      {"gemv-cols", "4294967296"},
      {"requests", "0"},
      {"layers", "two"},
      {"seqs", "256,,512"},
      {"mode", "fused"},
      {"arrivals", "0,x"},
      {"steps", "4294967296"},
      {"admit-policy", "lifo"},
      {"kv-budget", "1e6"},
      {"kv-evict", "lru"},
      {"kv-block-bytes", "100"},
      {"refetch-cost", "0"},
      {"kv-share", "maybe"},
      {"prefix-groups", "4294967295"},
      {"prefix-tokens", "a,b"},
      {"interleave", "zipper"},
      {"req-dispatch", "pinned"},
      {"traffic", "waves"},
      {"traffic-seed", "-3"},
      {"traffic-gap", "0"},
      {"traffic-seq", "512,64"},
      {"traffic-seq-dist", "poisson"},
      {"traffic-sigma", "nan"},
      {"traffic-steps", "1,4294967296"},
      {"traffic-groups", "many"},
      {"traffic-zipf", "-0.5"},
      {"traffic-share-pct", "101"},
      {"policy", "dynmg+xyz"},
      {"resp-arb", "both"},
      {"dispatch", "dynamic"},
      {"cores", "x"},
      {"llc-mb", "17592186044416"},
      {"slices", "0"},
      {"mshr-entries", "-6"},
      {"mshr-targets", "8x"},
      {"repl", "mru"},
      {"bypass", "some"},
      {"bypass-keep-p", "1.5"},
      {"seed", "0x10"},
  };
  for (const auto& [flag, value] : bad) {
    const std::string arg = "--" + std::string(flag) + "=" + std::string(value);
    const ParseResult r = parse({arg});
    ASSERT_FALSE(r.ok()) << arg;
    EXPECT_NE(r.error.find("--" + std::string(flag)), std::string::npos)
        << r.error;
    EXPECT_NE(r.error.find(value), std::string::npos) << r.error;
  }
  // Every value-taking flag of the registry has a row above.
  CliOptions unused;
  for (const CliFlag& f : cli_flags(unused)) {
    const FlagKind k = f.bind.kind;
    if (k == FlagKind::kSwitch || k == FlagKind::kHelp ||
        k == FlagKind::kPath) {
      continue;
    }
    const auto has_row = [&](const auto& row) { return row.first == f.name; };
    EXPECT_TRUE(std::any_of(bad.begin(), bad.end(), has_row)) << f.name;
  }
}

// ------------------------------------------------------- open-loop flags --

TEST(OptionVocabulary, TrafficEnums) {
  EXPECT_EQ(parse_enum<TrafficProcess>("poisson"), TrafficProcess::kPoisson);
  EXPECT_EQ(parse_enum<TrafficProcess>("bursty"), TrafficProcess::kBursty);
  EXPECT_EQ(parse_enum<TrafficProcess>("diurnal"), TrafficProcess::kDiurnal);
  EXPECT_FALSE(parse_enum<TrafficProcess>("uniform").has_value());
  EXPECT_EQ(parse_enum<TrafficDist>("uniform"), TrafficDist::kUniform);
  EXPECT_EQ(parse_enum<TrafficDist>("lognormal"), TrafficDist::kLognormal);
  EXPECT_EQ(parse_enum<TrafficDist>("LN"), TrafficDist::kLognormal);
  EXPECT_FALSE(parse_enum<TrafficDist>("poisson").has_value());
}

TEST(ParseCli, TrafficFlagsParse) {
  const ParseResult r = parse(
      {"--op=batch", "--mode=continuous", "--traffic=bursty", "--requests=16",
       "--traffic-seed=9", "--traffic-gap=40000", "--traffic-seq=32,320",
       "--traffic-seq-dist=lognormal", "--traffic-sigma=0.7",
       "--traffic-steps=2,5", "--traffic-groups=3", "--traffic-zipf=1.5",
       "--traffic-share-pct=60", "--kv-share=on"});
  ASSERT_TRUE(r.ok()) << r.error;
  const CliOptions& opt = *r.options;
  EXPECT_TRUE(opt.traffic);
  EXPECT_EQ(opt.traffic_cfg.process, TrafficProcess::kBursty);
  EXPECT_EQ(opt.batch_requests, 16u);
  EXPECT_EQ(opt.traffic_cfg.seed, 9u);
  EXPECT_EQ(opt.traffic_cfg.mean_gap, 40'000u);
  EXPECT_EQ(opt.traffic_cfg.seq_min, 32u);
  EXPECT_EQ(opt.traffic_cfg.seq_max, 320u);
  EXPECT_EQ(opt.traffic_cfg.seq_dist, TrafficDist::kLognormal);
  EXPECT_DOUBLE_EQ(opt.traffic_cfg.seq_sigma, 0.7);
  EXPECT_EQ(opt.traffic_cfg.steps_min, 2u);
  EXPECT_EQ(opt.traffic_cfg.steps_max, 5u);
  EXPECT_EQ(opt.traffic_cfg.prefix_groups, 3u);
  EXPECT_DOUBLE_EQ(opt.traffic_cfg.zipf_s, 1.5);
  EXPECT_EQ(opt.traffic_cfg.share_pct, 60u);
}

TEST(ParseCli, TrafficFlagsCrossChecked) {
  // --traffic needs the continuous batch engine.
  EXPECT_FALSE(parse({"--traffic=poisson"}).ok());
  EXPECT_FALSE(parse({"--op=batch", "--traffic=poisson"}).ok());
  // A --traffic-* knob without --traffic names itself in the error.
  const ParseResult knob =
      parse({"--op=batch", "--mode=continuous", "--traffic-gap=100"});
  ASSERT_FALSE(knob.ok());
  EXPECT_NE(knob.error.find("--traffic-gap"), std::string::npos);
  EXPECT_NE(knob.error.find("requires --traffic"), std::string::npos);
  // The generator replaces the hand-built per-request flags.
  EXPECT_FALSE(parse({"--op=batch", "--mode=continuous", "--traffic=poisson",
                      "--seqs=64,128"})
                   .ok());
  EXPECT_FALSE(parse({"--op=batch", "--mode=continuous", "--traffic=poisson",
                      "--arrivals=0,5"})
                   .ok());
  EXPECT_FALSE(parse({"--op=batch", "--mode=continuous", "--traffic=poisson",
                      "--steps=2"})
                   .ok());
  // Malformed values.
  EXPECT_FALSE(parse({"--op=batch", "--mode=continuous", "--traffic=waves"})
                   .ok());
  EXPECT_FALSE(parse({"--op=batch", "--mode=continuous", "--traffic=poisson",
                      "--traffic-gap=0"})
                   .ok());
  EXPECT_FALSE(parse({"--op=batch", "--mode=continuous", "--traffic=poisson",
                      "--traffic-seq=512,64"})
                   .ok());
  EXPECT_FALSE(parse({"--op=batch", "--mode=continuous", "--traffic=poisson",
                      "--traffic-seq=64"})
                   .ok());
  EXPECT_FALSE(parse({"--op=batch", "--mode=continuous", "--traffic=poisson",
                      "--traffic-share-pct=101"})
                   .ok());
}

TEST(ParseCli, TraceFlagsCrossChecked) {
  EXPECT_TRUE(parse({"--op=batch", "--mode=continuous", "--traffic=poisson",
                     "--trace-out=t.trace"})
                  .ok());
  EXPECT_TRUE(
      parse({"--op=batch", "--mode=continuous", "--trace-in=t.trace"}).ok());
  // Replay and generation are mutually exclusive workload sources.
  const ParseResult both = parse({"--op=batch", "--mode=continuous",
                                  "--traffic=poisson", "--trace-in=t.trace"});
  ASSERT_FALSE(both.ok());
  EXPECT_NE(both.error.find("conflict"), std::string::npos);
  // Replay replaces the per-request flags and needs the continuous engine.
  EXPECT_FALSE(parse({"--trace-in=t.trace"}).ok());
  EXPECT_FALSE(parse({"--op=batch", "--mode=continuous", "--trace-in=t.trace",
                      "--seqs=64,128"})
                   .ok());
  EXPECT_FALSE(parse({"--trace-out=t.trace"}).ok());
  // --digest is defined over batch runs only.
  EXPECT_TRUE(parse({"--op=batch", "--digest"}).ok());
  EXPECT_FALSE(parse({"--digest"}).ok());
}

// ------------------------------------------------------ the shared parser --
// Pinned through the small tables of llamcat_stress, llamcat_lint and the
// benches, which between them cover every binding the parser serves.

TEST(SharedParser, CollectsPositionalsInOrder) {
  LintOptions o;
  const std::vector<CliFlag> flags = lint_flags(o);
  const FlagParse p =
      parse_flags(flags, {"src", "--json=-", "tools", "--list-rules"});
  EXPECT_EQ(p.error, "");
  EXPECT_EQ(p.positionals, (std::vector<std::string_view>{"src", "tools"}));
  EXPECT_EQ(o.json_path, "-");
  EXPECT_TRUE(o.list_rules);
  ASSERT_EQ(p.given.size(), 2u);
  EXPECT_EQ(p.given[0]->name, "json");
  EXPECT_EQ(p.given[1]->name, "list-rules");

  // The front door rejects positionals unless the binary collects them.
  std::ostringstream out;
  std::ostringstream err;
  StressOptions stress;
  EXPECT_EQ(parse_command_line(stress_flags(stress), "usage\n", {"x"}, out,
                               err),
            2);
  EXPECT_EQ(err.str(), "error: unrecognized argument: x\n\nusage\n");
  std::vector<std::string_view> positionals;
  EXPECT_EQ(parse_command_line(flags, "usage\n", {"x", "--list-rules"}, out,
                               err, &positionals),
            std::nullopt);
  EXPECT_EQ(positionals, std::vector<std::string_view>{"x"});

  // llamcat_cli takes none.
  const ParseResult cli = parse({"--seq=256", "llama3"});
  EXPECT_FALSE(cli.ok());
  EXPECT_EQ(cli.error, "unrecognized argument: llama3");
}

TEST(SharedParser, UnknownFlagReportedByName) {
  StressOptions o;
  const FlagParse p =
      parse_flags(stress_flags(o), {"--verbose", "--frobnicate=2"});
  EXPECT_EQ(p.error, "unknown flag: --frobnicate");
  EXPECT_EQ(parse_flags(stress_flags(o), {"--"}).error, "unknown flag: --");
}

TEST(SharedParser, MalformedValueReported) {
  StressOptions o;
  EXPECT_EQ(parse_flags(stress_flags(o), {"--runs=3x"}).error,
            "bad --runs: \"3x\" (expect a positive 64-bit integer)");
  EXPECT_EQ(parse_flags(stress_flags(o), {"--jobs=-1"}).error,
            "bad --jobs: \"-1\" (expect an unsigned 64-bit integer)");
  // Switches take no value and value flags need one.
  EXPECT_EQ(parse_flags(stress_flags(o), {"--verbose=1"}).error,
            "unrecognized argument: --verbose=1");
  EXPECT_EQ(parse_flags(stress_flags(o), {"--runs"}).error,
            "unrecognized argument: --runs");
  EXPECT_EQ(o.runs, 200u);
  EXPECT_FALSE(o.verbose);
}

TEST(SharedParser, HelpShortCircuits) {
  StressOptions o;
  const std::vector<CliFlag> flags = stress_flags(o);
  for (const std::string_view help : {"-h", "--help"}) {
    const FlagParse p = parse_flags(flags, {help, "--runs=0", "--bogus"});
    EXPECT_TRUE(p.help_requested) << help;
    EXPECT_EQ(p.error, "") << help;
  }
  // Arguments before the request are still parsed.
  EXPECT_NE(parse_flags(flags, {"--bogus", "-h"}).error, "");
  std::ostringstream out;
  std::ostringstream err;
  EXPECT_EQ(parse_command_line(flags, "usage\n", {"-h", "x"}, out, err), 0);
  EXPECT_EQ(out.str(), "usage\n");
  EXPECT_EQ(err.str(), "");
}

TEST(SharedParser, UsageListsFlagsUnderTheirSection) {
  StressOptions o;
  EXPECT_EQ(flags_usage("usage: llamcat_stress\n", stress_flags(o)),
            "usage: llamcat_stress\n"
            "\n"
            "options\n"
            "  --runs=N           number of seeds to fuzz (default 200)\n"
            "  --jobs=N           worker threads for the sweep; 0 = all cores "
            "(default 1);\n"
            "                     output is identical for any job count\n"
            "  --seed=S           base seed; run i uses seed S+i (default 1)\n"
            "  --replay=S         run exactly the one seed S (what a failure "
            "report\n"
            "                     suggests)\n"
            "  --verbose          print every scenario, not just failures\n"
            "  --help             this text\n");
}

// ------------------------------------------------- tool and bench tables --

TEST(ToolFlags, ScaleVocabulary) {
  BenchOptions o;
  const FlagParse bad =
      parse_flags(bench_flags(&o.scale, nullptr), {"--scale=fast"});
  EXPECT_EQ(bad.error,
            "bad --scale: \"fast\" (expect one of: quick, default, paper)");
  EXPECT_EQ(o.scale, Scale::kDefault);
  for (const auto& [name, scale] :
       {std::pair{"quick", Scale::kQuick},
        std::pair{"default", Scale::kDefault},
        std::pair{"paper", Scale::kPaper}}) {
    const std::string arg = std::string("--scale=") + name;
    EXPECT_EQ(parse_flags(bench_flags(&o.scale, nullptr), {arg}).error, "")
        << name;
    EXPECT_EQ(o.scale, scale) << name;
    EXPECT_EQ(to_string(scale), name);
  }
  EXPECT_TRUE(o.paper());
  EXPECT_FALSE(o.quick());
}

TEST(ToolFlags, BenchesTakeOnlyTheFlagsTheyActOn) {
  Scale scale = Scale::kDefault;
  std::string json;
  EXPECT_EQ(parse_flags(bench_flags(&scale, nullptr), {"--json=out.json"})
                .error,
            "unknown flag: --json");
  EXPECT_EQ(parse_flags(bench_flags(&scale, &json), {"--json=out.json"})
                .error,
            "");
  EXPECT_EQ(json, "out.json");
  // A bench whose output is the same at every scale takes no --scale.
  EXPECT_EQ(parse_flags(bench_flags(nullptr, nullptr), {"--scale=quick"})
                .error,
            "unknown flag: --scale");
  EXPECT_TRUE(parse_flags(bench_flags(nullptr, nullptr), {"--help"})
                  .help_requested);
}

TEST(ToolFlags, StressTable) {
  StressOptions o;
  const FlagParse zero = parse_flags(stress_flags(o), {"--runs=0"});
  EXPECT_EQ(zero.error,
            "bad --runs: \"0\" (expect a positive 64-bit integer)");
  EXPECT_EQ(o.runs, 200u);
  const FlagParse p = parse_flags(
      stress_flags(o),
      {"--runs=50", "--jobs=0", "--seed=42", "--replay=7", "--verbose"});
  EXPECT_EQ(p.error, "");
  EXPECT_EQ(o.runs, 50u);
  EXPECT_EQ(o.jobs, 0u);
  EXPECT_EQ(o.base_seed, 42u);
  EXPECT_EQ(o.replay, std::optional<std::uint64_t>{7});
  EXPECT_TRUE(o.verbose);
}

}  // namespace
}  // namespace llamcat
