#pragma once

// Decorators the traced runs inject through the library's public
// interfaces: a span around every preference-oracle evaluation, and a
// metering wrapper around every wire channel. Both forward every call
// unchanged, so a traced run computes exactly what an untraced one does.

#include <cstdint>
#include <memory>

#include "agent/channel.hpp"
#include "core/oracle.hpp"
#include "trace.hpp"

namespace perfbench {

/// Opens an "oracle.evaluate_full" / "oracle.evaluate_incremental" layer
/// span around each evaluation of the wrapped oracle.
class TimedOracle final : public nexit::core::PreferenceOracle {
 public:
  TimedOracle(nexit::core::PreferenceOracle& inner, Tracer& tracer,
              std::int64_t item)
      : inner_(inner), tracer_(tracer), item_(item) {}

  nexit::core::Evaluation evaluate(
      const nexit::core::OracleContext& ctx) override {
    const Span span(tracer_, "oracle.evaluate_full", item_);
    return inner_.evaluate(ctx);
  }

  nexit::core::Evaluation evaluate_incremental(
      const nexit::core::OracleContext& ctx,
      const nexit::core::EvaluationDelta& delta) override {
    const Span span(tracer_, "oracle.evaluate_incremental", item_);
    return inner_.evaluate_incremental(ctx, delta);
  }

  nexit::core::PreferenceList disclose(
      const nexit::core::OracleContext& ctx,
      const nexit::core::PreferenceList& own_truth,
      const nexit::core::PreferenceList& remote_truth) override {
    return inner_.disclose(ctx, own_truth, remote_truth);
  }

  [[nodiscard]] bool wants_reassignment() const override {
    return inner_.wants_reassignment();
  }

 private:
  nexit::core::PreferenceOracle& inner_;
  Tracer& tracer_;
  const std::int64_t item_;
};

/// Per-session wire totals. Written only by the worker pumping the session,
/// which the session manager confines to one thread per scheduling round.
struct WireStats {
  std::uint64_t frames = 0;  // send() calls; an agent sends one frame each
  std::uint64_t bytes = 0;
  std::int64_t send_ns = 0;
  std::int64_t receive_ns = 0;
  std::int64_t first_send_ns = -1;    // first frame offered by either side
  std::int64_t last_receive_ns = -1;  // last non-empty receive by either side
};

/// Counts frames and bytes and times send()/receive() of the wrapped
/// channel into `stats`.
class MeteredChannel final : public nexit::agent::Channel {
 public:
  MeteredChannel(std::unique_ptr<nexit::agent::Channel> inner,
                 WireStats* stats)
      : inner_(std::move(inner)), stats_(stats) {}

  void send(const nexit::proto::Bytes& data) override {
    const std::int64_t t0 = now_ns();
    inner_->send(data);
    stats_->send_ns += now_ns() - t0;
    ++stats_->frames;
    stats_->bytes += data.size();
    if (stats_->first_send_ns < 0) stats_->first_send_ns = t0;
  }

  nexit::proto::Bytes receive() override {
    const std::int64_t t0 = now_ns();
    nexit::proto::Bytes got = inner_->receive();
    const std::int64_t t1 = now_ns();
    stats_->receive_ns += t1 - t0;
    if (!got.empty()) stats_->last_receive_ns = t1;
    return got;
  }

  [[nodiscard]] bool readable() const override { return inner_->readable(); }
  [[nodiscard]] int poll_fd() const override { return inner_->poll_fd(); }
  [[nodiscard]] bool closed() const override { return inner_->closed(); }
  void close() override { inner_->close(); }
  bool flush() override { return inner_->flush(); }

 private:
  std::unique_ptr<nexit::agent::Channel> inner_;
  WireStats* stats_;
};

}  // namespace perfbench
