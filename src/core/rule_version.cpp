#include "core/rule_version.hpp"

#include <algorithm>

#include "core/intern.hpp"

namespace haystack::core {

std::shared_ptr<const CompiledRuleVersion> compile_rules(
    const Hitlist& hitlist, const RuleSet& rules,
    const DetectorConfig& config, std::uint64_t id,
    std::shared_ptr<const RuleSet> owned, InternTable* intern) {
  auto v = std::make_shared<CompiledRuleVersion>();
  v->id = id;
  v->rules = &rules;
  v->owned = std::move(owned);
  v->config = config;

  ServiceId max_id = 0;
  for (const auto& r : rules.rules) max_id = std::max(max_id, r.service);
  v->rule_of.assign(max_id + 1U, nullptr);
  for (const auto& r : rules.rules) v->rule_of[r.service] = &r;

  v->fast_rules.assign(v->rule_of.size(), RuleFast{});
  for (std::size_t s = 0; s < v->rule_of.size(); ++s) {
    const DetectionRule* rule = v->rule_of[s];
    if (rule == nullptr) continue;
    RuleFast& fast = v->fast_rules[s];
    fast.has_rule = true;
    fast.required = static_cast<std::uint16_t>(
        std::min(rule->required_domains(config.threshold), 0xffffU));
    if (rule->critical_sufficient && rule->critical_monitored_index &&
        *rule->critical_monitored_index < 128) {
      const std::uint16_t idx = *rule->critical_monitored_index;
      fast.critical_mask[idx >> 6] |= std::uint64_t{1} << (idx & 63U);
    }
  }

  auto index = std::make_shared<SignatureIndex>();
  index->build(hitlist, rules, intern);
  v->index = std::move(index);
  return v;
}

std::optional<util::HourBin> eval_detection_hour(
    const FlatEvidenceMap<Evidence>& evidence, const CompiledRuleVersion& v,
    SubscriberKey subscriber, ServiceId service) {
  util::HourBin latest = 0;
  std::optional<ServiceId> current = service;
  while (current) {
    const DetectionRule* rule = v.rule_for(*current);
    if (rule == nullptr) return std::nullopt;
    const Evidence* ev = evidence.find(subscriber, *current);
    if (ev == nullptr || !ev->satisfied()) {
      return std::nullopt;
    }
    latest = std::max(latest, ev->satisfied_hour());
    current = rule->parent;
  }
  return latest;
}

Verdict eval_verdict(const FlatEvidenceMap<Evidence>& evidence,
                     const CompiledRuleVersion& v, double observed_loss,
                     SubscriberKey subscriber, ServiceId service) {
  if (const auto hour = eval_detection_hour(evidence, v, subscriber, service)) {
    return {true, Confidence::kHigh, hour, v.id};
  }
  const bool degraded = observed_loss > v.config.loss_tolerance;
  if (!degraded) return {false, Confidence::kHigh, std::nullopt, v.id};

  // Degraded channel: an estimated fraction `observed_loss` of the export
  // stream never reached us, so scale the evidence requirement down
  // proportionally (never below one domain) and re-evaluate the hierarchy
  // chain on current evidence. Whatever the answer, it is low-confidence.
  std::optional<ServiceId> current = service;
  while (current) {
    const DetectionRule* rule = v.rule_for(*current);
    if (rule == nullptr) return {false, Confidence::kLow, std::nullopt, v.id};
    const Evidence* found = evidence.find(subscriber, *current);
    if (found == nullptr) return {false, Confidence::kLow, std::nullopt, v.id};
    const Evidence& ev = *found;
    const bool critical_ok =
        rule->critical_sufficient && rule->critical_monitored_index &&
        *rule->critical_monitored_index < 128 &&
        ev.sees(*rule->critical_monitored_index);
    const unsigned required = rule->required_domains(v.config.threshold);
    const auto relaxed = std::max<unsigned>(
        1, static_cast<unsigned>(static_cast<double>(required) *
                                 (1.0 - observed_loss)));
    if (!critical_ok && ev.distinct() < relaxed) {
      return {false, Confidence::kLow, std::nullopt, v.id};
    }
    current = rule->parent;
  }
  return {true, Confidence::kLow, std::nullopt, v.id};
}

}  // namespace haystack::core
