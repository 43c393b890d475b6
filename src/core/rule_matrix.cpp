#include "core/rule_matrix.hpp"

#include <optional>
#include <stdexcept>
#include <utility>

#include "protocols/oneway.hpp"

namespace ppfs {

namespace {

using UnaryFn = std::function<State(State)>;

// Lower a designer function to a dense table, defaulting to identity.
std::vector<State> unary_table(const UnaryFn& fn, std::size_t q) {
  std::vector<State> t(q);
  for (State s = 0; s < q; ++s) {
    const State out = fn ? fn(s) : s;
    if (out >= q)
      throw std::invalid_argument("RuleMatrix: omission fn maps out of range");
    t[s] = out;
  }
  return t;
}

void validate_fns(Model model, const ModelFns& fns) {
  const ModelCaps caps = model_caps(model);
  if (fns.o && !caps.starter_detects_omission)
    throw std::invalid_argument(
        "RuleMatrix: model " + model_name(model) +
        " has no starter-side omission detection; installing o is an error");
  if (fns.h && !caps.reactor_detects_omission)
    throw std::invalid_argument(
        "RuleMatrix: model " + model_name(model) +
        " has no reactor-side omission detection; installing h is an error");
}

}  // namespace

std::string interaction_class_name(InteractionClass c) {
  switch (c) {
    case InteractionClass::Real: return "real";
    case InteractionClass::OmitBoth: return "omit-both";
    case InteractionClass::OmitStarter: return "omit-starter";
    case InteractionClass::OmitReactor: return "omit-reactor";
  }
  throw std::invalid_argument("interaction_class_name: bad class");
}

RuleMatrix RuleMatrix::compile(std::shared_ptr<const Protocol> protocol,
                               Model model, const ModelFns& fns) {
  if (!protocol) throw std::invalid_argument("RuleMatrix: null protocol");
  validate_fns(model, fns);
  const std::size_t q = protocol->num_states();

  RuleMatrix m;
  m.model_ = model;
  m.q_ = q;
  m.two_way_ = protocol;
  auto& real = m.tables_[static_cast<std::size_t>(InteractionClass::Real)];
  real.resize(q * q);
  for (State s = 0; s < q; ++s)
    for (State r = 0; r < q; ++r) real[s * q + r] = protocol->delta(s, r);

  if (is_one_way(model)) {
    // A two-way protocol runs under a one-way model only through the IT
    // shape delta(s, r) = (g(s), f(s, r)) (§2.2).
    const auto g = it_shape_g(*protocol);
    if (!g)
      throw std::invalid_argument(
          "RuleMatrix: protocol '" + protocol->name() +
          "' does not fit the one-way shape required by " + model_name(model));
    if (model == Model::IO) {
      // IO: the starter must be unaware, i.e. g = id.
      for (State s = 0; s < q; ++s) {
        if ((*g)[s] != s)
          throw std::invalid_argument(
              "RuleMatrix: protocol has g != id, IO forbids it");
      }
    }

    if (is_omissive(model)) {
      const std::vector<State> o = unary_table(fns.o, q);
      const std::vector<State> h = unary_table(fns.h, q);
      std::vector<StatePair> omit(q * q);
      for (State s = 0; s < q; ++s) {
        for (State r = 0; r < q; ++r) {
          const State gs = (*g)[s];
          StatePair out{gs, r};
          switch (model) {
            case Model::I1: out = {gs, r}; break;
            case Model::I2: out = {gs, (*g)[r]}; break;
            case Model::I3: out = {gs, h[r]}; break;
            case Model::I4: out = {o[s], (*g)[r]}; break;
            default:
              throw std::logic_error("RuleMatrix: unexpected one-way model");
          }
          omit[s * q + r] = out;
        }
      }
      // One-way transmission has no side distinction: all omissive
      // classes share the single faulty outcome.
      m.tables_[static_cast<std::size_t>(InteractionClass::OmitBoth)] = omit;
      m.tables_[static_cast<std::size_t>(InteractionClass::OmitStarter)] = omit;
      m.tables_[static_cast<std::size_t>(InteractionClass::OmitReactor)] =
          std::move(omit);
    }
    return m;
  }

  // Two-way models: omissive classes per the T-relations, with o/h
  // defaulting to identity (exactly T1 when both default).
  if (is_omissive(model)) {
    const std::vector<State> o = unary_table(fns.o, q);
    const std::vector<State> h = unary_table(fns.h, q);
    auto& both = m.tables_[static_cast<std::size_t>(InteractionClass::OmitBoth)];
    auto& ost = m.tables_[static_cast<std::size_t>(InteractionClass::OmitStarter)];
    auto& ore = m.tables_[static_cast<std::size_t>(InteractionClass::OmitReactor)];
    both.resize(q * q);
    ost.resize(q * q);
    ore.resize(q * q);
    for (State s = 0; s < q; ++s) {
      for (State r = 0; r < q; ++r) {
        const StatePair d = protocol->delta(s, r);
        ost[s * q + r] = {o[s], d.reactor};   // (o, fr)
        ore[s * q + r] = {d.starter, h[r]};   // (fs, h)
        both[s * q + r] = {o[s], h[r]};       // (o, h)
      }
    }
  }
  return m;
}

RuleMatrix RuleMatrix::compile(std::shared_ptr<const OneWayProtocol> protocol,
                               Model model, const std::vector<State>& initial,
                               const ModelFns& fns) {
  if (!protocol) throw std::invalid_argument("RuleMatrix: null protocol");
  if (!is_one_way(model))
    throw std::invalid_argument("RuleMatrix: one-way protocol requires a "
                                "one-way model, got " + model_name(model));
  if (model == Model::IO && !protocol->is_io())
    throw std::invalid_argument(
        "RuleMatrix: protocol has g != id, IO forbids it");
  // The lowered two-way table is the canonical face; its delta equals
  // (g(s), f(s, r)), so the one-way compile path above applies verbatim.
  // The lowered face's Q'_P is the set of distinct initial states,
  // ascending: multiplicity is irrelevant to it, so a per-agent `initial`
  // is read once and never kept. (Out-of-range states are left to the
  // population that validates them.)
  std::vector<char> seen(protocol->num_states(), 0);
  for (const State s : initial)
    if (s < seen.size()) seen[s] = 1;
  std::vector<State> seed;
  for (std::size_t s = 0; s < seen.size(); ++s)
    if (seen[s] != 0) seed.push_back(static_cast<State>(s));
  auto lowered = lower_to_two_way(*protocol, std::move(seed));
  return compile(std::move(lowered), model, fns);
}

InteractionClass RuleMatrix::classify(const Interaction& ia) const {
  if (!ia.omissive) return InteractionClass::Real;
  return omission_class(ia.side);
}

InteractionClass RuleMatrix::omission_class(OmitSide side) const {
  return omission_class_for(model_, side);
}

InteractionClass omission_class_for(Model model, OmitSide side) {
  if (!is_omissive(model))
    throw std::invalid_argument("omission_class_for: omissive interaction "
                                "under the non-omissive model " +
                                model_name(model));
  if (is_one_way(model)) return InteractionClass::OmitBoth;
  switch (side) {
    case OmitSide::Both: return InteractionClass::OmitBoth;
    case OmitSide::Starter: return InteractionClass::OmitStarter;
    case OmitSide::Reactor: return InteractionClass::OmitReactor;
  }
  throw std::invalid_argument("omission_class_for: bad omission side");
}

}  // namespace ppfs
