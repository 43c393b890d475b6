// SKnO — the token/joker simulator of §4.1 (Theorem 4.1, Corollary 1).
//
// Assumption: an upper bound o on the total number of omissions is known.
// Every simulated state q is represented by a *run* of o+1 numbered tokens
// ⟨q,1⟩..⟨q,o+1⟩. An agent entering the `pending` state enqueues the run
// for its own state; every time it acts as a starter it transmits (and
// discards — at-most-once) the front token of its queue. A reactor
// enqueues what it receives; when the detecting side observes an omission
// it mints a joker token ⟨J⟩, which later substitutes for any single
// missing token ("Rummy" wildcards, with a debt list so that a late copy
// of the substituted token is itself turned back into a joker).
//
// A reactor that assembles a complete run for some state q consumes it and
// applies its half of the two-way transition, delta(q, own)[1], then
// enqueues a *state-change* run ⟨(q, own_before),1..o+1⟩; the pending
// agent in state q that assembles that change run applies the starter half
// delta(q, own_before)[0] and becomes available again. A pending agent
// that instead gets its own state run back cancels the transaction.
//
// Supported models: I3 (reactor detects omissions — the paper's primary
// variant), I4 (starter detects; the symmetric variant: on an omission the
// starter keeps its in-flight token and mints the joker, while the reactor
// behaves as a starter, popping its own front token into the void), and
// IT (o = 0, no omissions — Corollary 1).
//
// The token machinery is factored into SknoCore, a *value-level* step
// function over per-agent Agent records: its behavior is a pure function
// of (sim_state, pending flag, token-value queue, debt multiset) — token
// run ids are write-only provenance for the matching verifier and are
// never consulted by any decision (which instance of equal-valued tokens
// a consumption removes is the canonical first-occurrence-per-index).
// That purity is what lets sim/sim_rules.hpp serialize an Agent into a
// canonical byte encoding and run SKnO through the count-space batch
// engine over interned states: the step-wise SknoSimulator below and the
// count-space SknoRuleSource realize the identical value-level chain.
//
// Canonical encoding (SknoRuleSource): little-endian fields
//   [sim_state u16][pending u8][nq u16][queue tokens, in FIFO order]
//   [nd u16][debt tokens, sorted ascending]
// with each token packed into a u32 (kind 2 bits | q 12 | qr 12 | index
// 6); run ids are excluded. The queue keeps FIFO order (transmission
// order is semantic); the debt list is order-irrelevant (lookup is by
// value) and is sorted to canonicalize.
//
// Documented deviations from the paper text (see DESIGN.md §3):
//   * change tokens carry the reactor's *pre*-interaction state;
//   * completing a run requires at least one real (non-joker) token.
#pragma once

#include <deque>
#include <optional>
#include <vector>

#include "sim/simulator.hpp"

namespace ppfs {

// The value-level SKnO token machinery, shared by the step-wise
// SknoSimulator and the count-space SknoRuleSource (sim/sim_rules.hpp).
//
// Fixpoint invariant: after every SknoCore operation, no check that
// applies in the agent's mode can consume a run. run_checks loops until
// nothing fires, and apply_g only pops tokens (its refill happens on an
// empty queue and leaves the own run's indices 2..o+1, which cannot
// complete without a joker). So receive() checks only what the delivery
// adds: nothing received acts on nothing, and a real token that is not a
// debt conversion can complete only its own payload — the full checks run
// when that payload is completable, and then it is the first completable
// candidate, so the canonical choice is the full search's. Jokers (minted,
// forwarded or converted from debt) can complete any payload and always
// take the full checks. Agents start available with empty queues, which
// is a fixpoint; a record built by hand must be one too. Under
// -DPPFS_AUDIT=ON every skipped check is verified by audit_fixpoint().
class SknoCore {
 public:
  struct Token {
    enum class Kind : std::uint8_t { StateRun, ChangeRun, Joker };
    Kind kind = Kind::Joker;
    State q = kNoState;        // StateRun: state; ChangeRun: pending (starter) state
    State qr = kNoState;       // ChangeRun only: reactor's pre-interaction state
    std::uint32_t index = 0;   // 1..o+1
    std::uint64_t run = 0;     // provenance (verification only, not protocol logic)

    // Protocol-level equality: tokens are anonymous, run ids excluded.
    [[nodiscard]] bool same_value(const Token& t) const noexcept {
      return kind == t.kind && q == t.q && qr == t.qr && index == t.index;
    }
  };

  // The full wrapper state of one agent.
  struct Agent {
    State sim_state = 0;
    bool pending = false;
    std::deque<Token> sending;
    std::vector<Token> joker_debt;  // values owed after wildcard use
  };

  // A simulated-state update produced by a step (the caller attaches the
  // agent identity and forwards to Simulator::emit).
  struct Emit {
    State before;
    State after;
    Half half;
    std::uint64_t key;
    State partner;
  };
  using Emits = std::vector<Emit>;

  // Byte-level mutation footprint of the last step(), per agent — what the
  // count-space rule source needs to build the successor encoding by
  // PATCHING the pre-state bytes instead of re-serializing the record. The
  // frequent shapes are exactly the ones §4.1 fires on almost every
  // delivery: the starter pops its front token (possibly refilling first)
  // and the reactor appends the received token. Anything that touches more
  // than that — run consumption, cancellation, debt traffic — reports
  // Complex, and the rule source re-serializes.
  struct Footprint {
    enum class Kind : std::uint8_t {
      Unchanged,    // no field of the record changed
      PoppedFront,  // queue front token removed, nothing else
      Refilled,     // was available + empty: pending set, own state run
                    // enqueued, front token popped — queue is now the run's
                    // indices 2..o+1
      Appended,     // `appended` pushed to the queue back, nothing else
      Complex,      // anything else: fall back to full re-serialization
    };
    Kind kind = Kind::Unchanged;
    Token appended{};  // Appended only
  };
  struct StepFootprint {
    Footprint starter;
    Footprint reactor;
  };

  struct Stats {
    std::uint64_t runs_generated = 0;       // pending transactions opened
    std::uint64_t state_runs_consumed = 0;  // reactor halves simulated
    std::uint64_t change_runs_consumed = 0; // starter halves completed
    std::uint64_t cancels = 0;              // pending transactions cancelled
    std::uint64_t jokers_minted = 0;
    std::uint64_t jokers_used = 0;          // jokers spent as wildcards
    std::uint64_t tokens_killed = 0;        // in-flight/own tokens destroyed
    std::uint64_t debt_conversions = 0;     // late real token -> joker
    std::size_t max_queue = 0;              // max tokens held by any agent
  };

  // Ablation switches (defaults are the faithful §4.1 protocol). Used by
  // the design-choice ablation experiments to show each mechanism is
  // load-bearing; disabling joker_debt loses liveness under <= o
  // omissions (a stolen joker's run can never be repaid).
  struct Options {
    bool joker_debt = true;
  };

  // `track_provenance` mints fresh run ids for the matching verifier; the
  // count-space path turns it off (all run ids 0) so equal-valued states
  // stay canonical.
  SknoCore(const Protocol* protocol, Model model, std::size_t omission_bound,
           Options options, bool track_provenance);

  // One physical interaction between `starter` and `reactor`. Simulated
  // updates applied to the starter's record go to `starter_emits`, the
  // reactor's to `reactor_emits` (either may be null).
  void step(Agent& starter, Agent& reactor, bool omissive, OmitSide side,
            Emits* starter_emits, Emits* reactor_emits);

  // Footprint of the most recent step() (reset at each call).
  [[nodiscard]] const StepFootprint& last_footprint() const noexcept {
    return footprint_;
  }

  // Value-level reactor half of one delivery in isolation: receive `tok`
  // (a transmitted token, or an omission-minted joker — receiving a joker
  // is identical to detecting an omission, since debt entries never hold
  // joker values) and run the §4.1 checks. The count-space rule source
  // caches this on (token value, reactor encoding): every step of every
  // model decomposes into this plus the decode-free starter routine g.
  void receive_one(Agent& a, const Token& tok, Footprint& fp) {
    receive(a, tok, nullptr, fp);
  }

  // Throws AuditError if a check applying in `a`'s mode would consume a
  // run — i.e. if `a` is not at the fixpoint the class comment states.
  // Runs the full checks on copies; the audit hook in receive() calls it
  // wherever a check is skipped.
  void audit_fixpoint(const Agent& a) const;

  [[nodiscard]] const Stats& stats() const noexcept { return stats_; }
  [[nodiscard]] std::size_t omission_bound() const noexcept { return o_; }
  [[nodiscard]] Model model() const noexcept { return model_; }
  [[nodiscard]] const Options& options() const noexcept { return options_; }

 private:
  friend struct SknoCoreTestPeer;  // reference run search (tests)

  // Starter routine g: refill when available with an empty queue, then pop
  // and return the front token (if any). Records into `fp`.
  std::optional<Token> apply_g(Agent& a, Footprint& fp);

  // Reactor receives a token (or nothing) and runs the preliminary + core
  // checks of §4.1 that the token can make succeed.
  void receive(Agent& a, const std::optional<Token>& tok, Emits* emits,
               Footprint& fp);
  // Whether real token `t`, just appended to `a.sending`, completes its
  // payload's run in a check that applies in `a`'s mode.
  bool completes_run(const Agent& a, const Token& t);
  void mint_joker(Agent& a, Footprint& fp);
  // The preliminary + core checks, repeated until none fires; returns
  // whether any did.
  bool run_checks(Agent& a, Emits* emits, Footprint& fp);

  // Searches `a.sending` for a complete run (indices 1..o+1) of the given
  // kind/value, using jokers for missing indices (at least one real token
  // required). On success removes the used tokens and returns the
  // provenance run id of the token filling the smallest index.
  struct Consumed {
    std::uint64_t primary_run;
    State q;
    State qr;
  };
  std::optional<Consumed> try_consume(Agent& a, Token::Kind kind,
                                      std::optional<State> q_filter) {
    return consume_(*this, a, kind, q_filter);
  }
  // The two searches behind it, chosen by o at construction; both make
  // the same canonical choice. While o + 1 fits one word (kMaskIndices),
  // a counting pass exits early when even every matching token and joker
  // together fall short, then one pass builds every candidate payload's
  // index bitmask and popcounts decide; larger bounds rescan the queue
  // per candidate.
  using ConsumeFn = std::optional<Consumed> (*)(SknoCore&, Agent&, Token::Kind,
                                                std::optional<State>);
  static std::optional<Consumed> try_consume_masked(
      SknoCore& core, Agent& a, Token::Kind kind, std::optional<State> q_filter);
  static std::optional<Consumed> try_consume_scan(
      SknoCore& core, Agent& a, Token::Kind kind, std::optional<State> q_filter);
  // Consume the (kind, q, qr) run, `missing` of whose indices come from
  // jokers (recorded as joker debt).
  Consumed consume_run(Agent& a, Token::Kind kind, State q, State qr,
                       std::uint32_t missing);

  // Indices 1..o+1 as bits 1..63 of one word.
  static constexpr std::uint32_t kMaskIndices = 63;
  struct Masked {
    State q;
    State qr;
    std::uint64_t mask;  // bit i: the queue holds index i of this payload
  };

  void note_queue_size(const Agent& a);

  const Protocol* protocol_;
  Model model_;
  std::size_t o_;
  Options options_;
  bool track_provenance_;
  ConsumeFn consume_;
  std::uint64_t next_run_ = 1;
  Stats stats_;
  StepFootprint footprint_;
  // try_consume scratch, reused across calls: the count-space hot path
  // runs millions of steps per second and per-call allocations were
  // measured to dominate the outcome-cache miss cost.
  std::vector<Masked> scratch_masked_;
  std::vector<std::pair<State, State>> scratch_candidates_;  // o + 1 > 63
  std::vector<char> scratch_taken_;  // per-index flags, 0..o+1
};

class SknoSimulator final : public Simulator {
 public:
  using Token = SknoCore::Token;
  using Stats = SknoCore::Stats;
  using Options = SknoCore::Options;

  SknoSimulator(std::shared_ptr<const Protocol> protocol, Model model,
                std::size_t omission_bound, std::vector<State> initial);
  SknoSimulator(std::shared_ptr<const Protocol> protocol, Model model,
                std::size_t omission_bound, std::vector<State> initial,
                Options options);

  [[nodiscard]] std::unique_ptr<Simulator> clone() const override;
  [[nodiscard]] State simulated_state(AgentId a) const override;
  [[nodiscard]] std::string describe() const override;

  [[nodiscard]] std::size_t omission_bound() const noexcept {
    return core_.omission_bound();
  }
  [[nodiscard]] const Stats& stats() const noexcept { return core_.stats(); }

  [[nodiscard]] bool is_pending(AgentId a) const { return agents_.at(a).pending; }
  [[nodiscard]] std::size_t queue_size(AgentId a) const {
    return agents_.at(a).sending.size();
  }
  [[nodiscard]] std::size_t total_live_tokens() const;
  [[nodiscard]] std::size_t live_jokers() const;

  // Approximate per-agent memory need in bits, under the counting
  // representation the Theorem 4.1 bound refers to: one counter per
  // distinct token value plus the simulator scalars.
  [[nodiscard]] std::size_t memory_bits(AgentId a) const;

 protected:
  void do_interact(const Interaction& ia) override;

 private:
  SknoCore core_;
  std::vector<SknoCore::Agent> agents_;
};

// The model set SknoSimulator (and its rule source) accepts; throws
// std::invalid_argument otherwise. Shared by the step-wise and count-space
// construction paths.
void validate_skno_model(Model model, std::size_t omission_bound);

}  // namespace ppfs
