#include "net/traffic.h"

#include <algorithm>
#include <utility>

namespace flexnet::net {

packet::Packet TrafficGenerator::MakePacket(const FlowSpec& flow) {
  packet::Ipv4Spec ip;
  ip.src = flow.src_ip;
  ip.dst = flow.dst_ip;
  packet::Packet p;
  if (flow.proto == 17) {
    packet::UdpSpec udp;
    udp.sport = flow.src_port;
    udp.dport = flow.dst_port;
    p = packet::MakeUdpPacket(next_packet_id_++, ip, udp, flow.packet_bytes);
  } else {
    packet::TcpSpec tcp;
    tcp.sport = flow.src_port;
    tcp.dport = flow.dst_port;
    p = packet::MakeTcpPacket(next_packet_id_++, ip, tcp, flow.packet_bytes);
  }
  return p;
}

void TrafficGenerator::StartCbr(const FlowSpec& flow, double pps,
                                SimDuration duration) {
  const SimDuration gap = std::max<SimDuration>(
      1, static_cast<SimDuration>(static_cast<double>(kSecond) / pps));
  sim::Simulator* sim = network_->simulator();
  const SimTime stop = sim->now() + duration;
  // One tick = one burst = one InjectBatch; the gap scales with the burst
  // so the stream's mean rate is burst-invariant.
  struct Tick {
    TrafficGenerator* gen;
    FlowSpec flow;
    SimDuration gap;
    SimTime stop;
    std::size_t burst;
    void operator()() const {
      sim::Simulator* sim = gen->network_->simulator();
      if (sim->now() > stop) return;
      packet::PacketBatch batch = gen->network_->AcquireBatch();
      for (std::size_t i = 0; i < burst; ++i) {
        batch.Push(gen->MakePacket(flow));
        ++gen->emitted_;
      }
      gen->network_->InjectBatch(flow.from, std::move(batch));
      sim->Schedule(gap * static_cast<SimDuration>(burst), *this);
    }
  };
  sim->Schedule(gap, Tick{this, flow, gap, stop, burst_});
}

void TrafficGenerator::StartPoisson(const FlowSpec& flow, double pps,
                                    SimDuration duration) {
  sim::Simulator* sim = network_->simulator();
  const SimTime stop = sim->now() + duration;
  // A burst of k coalesces k Poisson arrivals into one batch; the next
  // tick fires after the *sum* of k exponential gaps, preserving the mean
  // rate and the seeded draw sequence.
  struct Tick {
    TrafficGenerator* gen;
    FlowSpec flow;
    double pps;
    SimTime stop;
    std::size_t burst;
    void operator()() const {
      sim::Simulator* sim = gen->network_->simulator();
      if (sim->now() > stop) return;
      packet::PacketBatch batch = gen->network_->AcquireBatch();
      for (std::size_t i = 0; i < burst; ++i) {
        batch.Push(gen->MakePacket(flow));
        ++gen->emitted_;
      }
      gen->network_->InjectBatch(flow.from, std::move(batch));
      double gap_s = 0.0;
      for (std::size_t i = 0; i < burst; ++i) {
        gap_s += gen->rng_.NextExponential(pps);
      }
      sim->Schedule(static_cast<SimDuration>(gap_s *
                                             static_cast<double>(kSecond)),
                    *this);
    }
  };
  const double first_gap = rng_.NextExponential(pps);
  sim->Schedule(
      static_cast<SimDuration>(first_gap * static_cast<double>(kSecond)),
      Tick{this, flow, pps, stop, burst_});
}

void TrafficGenerator::StartSynFlood(DeviceId from, std::uint64_t dst_ip,
                                     double pps, SimDuration duration,
                                     std::uint64_t spoof_base,
                                     std::uint64_t spoof_range) {
  sim::Simulator* sim = network_->simulator();
  const SimDuration gap = std::max<SimDuration>(
      1, static_cast<SimDuration>(static_cast<double>(kSecond) / pps));
  const SimTime stop = sim->now() + duration;
  struct Tick {
    TrafficGenerator* gen;
    DeviceId from;
    std::uint64_t dst_ip;
    std::uint64_t spoof_base;
    std::uint64_t spoof_range;
    SimDuration gap;
    SimTime stop;
    std::size_t burst;
    void operator()() const {
      sim::Simulator* sim = gen->network_->simulator();
      if (sim->now() > stop) return;
      static const packet::Symbol kAttack = packet::Intern("attack");
      packet::PacketBatch batch = gen->network_->AcquireBatch();
      for (std::size_t i = 0; i < burst; ++i) {
        packet::Ipv4Spec ip;
        ip.src = spoof_base + gen->rng_.NextBounded(spoof_range);
        ip.dst = dst_ip;
        packet::TcpSpec tcp;
        tcp.sport = 1024 + gen->rng_.NextBounded(60000);
        tcp.dport = 80;
        tcp.flags = packet::kTcpFlagSyn;
        packet::Packet p =
            packet::MakeTcpPacket(gen->next_packet_id_++, ip, tcp, 64);
        p.SetMeta(kAttack, 1);  // ground-truth label for benign/attack stats
        ++gen->emitted_;
        batch.Push(std::move(p));
      }
      gen->network_->InjectBatch(from, std::move(batch));
      sim->Schedule(gap * static_cast<SimDuration>(burst), *this);
    }
  };
  sim->Schedule(gap, Tick{this, from, dst_ip, spoof_base, spoof_range, gap,
                          stop, burst_});
}

FlowSpec TrafficGenerator::HeavyTailFlow(const HeavyTailConfig& config,
                                         Rng& rng) {
  // Flow index space: [0, elephants) are the Zipf-hot elephants, the rest
  // of [0, flows) the uniform mice.  Every per-flow attribute derives from
  // the index, so a repeated index is a repeated flow.
  const std::size_t elephants = std::min(config.elephants, config.flows);
  std::uint64_t idx;
  if (elephants < config.flows && rng.NextBool(config.mice_fraction)) {
    idx = elephants + rng.NextBounded(config.flows - elephants);
  } else {
    idx = rng.NextZipf(elephants == 0 ? 1 : elephants, config.zipf_s);
  }
  FlowSpec flow;
  flow.src_ip = config.src_base + idx;
  flow.dst_ip =
      config.dst_base + (config.dst_span == 0 ? 0 : idx % config.dst_span);
  flow.proto = 6;
  flow.src_port = 1024 + idx % 50000;
  flow.dst_port = (idx & 1) != 0 ? 443 : 80;
  flow.packet_bytes = config.packet_bytes;
  return flow;
}

void TrafficGenerator::StartHeavyTailed(DeviceId from,
                                        const HeavyTailConfig& config,
                                        double pps, SimDuration duration) {
  sim::Simulator* sim = network_->simulator();
  const SimDuration gap = std::max<SimDuration>(
      1, static_cast<SimDuration>(static_cast<double>(kSecond) / pps));
  const SimTime stop = sim->now() + duration;
  struct Tick {
    TrafficGenerator* gen;
    DeviceId from;
    HeavyTailConfig config;
    SimDuration gap;
    SimTime stop;
    std::size_t burst;
    void operator()() const {
      sim::Simulator* sim = gen->network_->simulator();
      if (sim->now() > stop) return;
      packet::PacketBatch batch = gen->network_->AcquireBatch();
      for (std::size_t i = 0; i < burst; ++i) {
        FlowSpec flow = HeavyTailFlow(config, gen->rng_);
        flow.from = from;
        batch.Push(gen->MakePacket(flow));
        ++gen->emitted_;
      }
      gen->network_->InjectBatch(from, std::move(batch));
      sim->Schedule(gap * static_cast<SimDuration>(burst), *this);
    }
  };
  sim->Schedule(gap, Tick{this, from, config, gap, stop, burst_});
}

void TrafficGenerator::StartMix(const std::vector<EndpointRef>& endpoints,
                                const MixConfig& config) {
  if (endpoints.size() < 2) return;
  sim::Simulator* sim = network_->simulator();
  for (std::size_t i = 0; i < config.flows; ++i) {
    const std::size_t a = rng_.NextBounded(endpoints.size());
    std::size_t b = rng_.NextBounded(endpoints.size());
    if (b == a) b = (b + 1) % endpoints.size();
    const double pkts = rng_.NextParetoBounded(config.pareto_alpha,
                                               config.min_pkts,
                                               config.max_pkts);
    FlowSpec flow;
    flow.from = endpoints[a].device;
    flow.src_ip = endpoints[a].address;
    flow.dst_ip = endpoints[b].address;
    flow.src_port = 30000 + rng_.NextBounded(30000);
    flow.dst_port = rng_.NextBool(0.5) ? 80 : 443;
    const SimDuration start_offset = static_cast<SimDuration>(
        rng_.NextBounded(static_cast<std::uint64_t>(config.span)));
    const SimDuration duration = static_cast<SimDuration>(
        pkts / config.per_flow_pps * static_cast<double>(kSecond));
    TrafficGenerator* self = this;
    const double pps = config.per_flow_pps;
    sim->Schedule(start_offset, [self, flow, pps, duration]() {
      self->StartCbr(flow, pps, duration);
    });
  }
}

}  // namespace flexnet::net
