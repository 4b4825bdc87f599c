#include "src/nic/lauberhorn_runtime.h"

#include <algorithm>
#include <cassert>
#include <map>
#include <memory>
#include <optional>
#include <utility>

namespace lauberhorn {

LauberhornRuntime::LauberhornRuntime(Simulator& sim, Kernel& kernel, LauberhornNic& nic,
                                     MemoryHomeAgent& memory, Iommu& iommu,
                                     ServiceRegistry& services, Config config)
    : sim_(sim),
      kernel_(kernel),
      nic_(nic),
      memory_(memory),
      iommu_(iommu),
      services_(services),
      config_(config),
      governor_(config.scale) {
  next_dma_buffer_ = config_.dma_region_base;
}

uint32_t LauberhornRuntime::RegisterService(const ServiceDef& service, int max_cores,
                                            uint32_t vf) {
  Process* process = kernel_.CreateProcess(service.name);
  uint32_t first = 0;
  for (int i = 0; i < max_cores; ++i) {
    const uint64_t dma_buffer = next_dma_buffer_;
    next_dma_buffer_ += kDmaBufferSize;
    iommu_.Map(dma_buffer, dma_buffer, kDmaBufferSize);

    // Fabricated process-virtual pointers: the first instruction of the
    // service's dispatch stub and its data segment.
    const uint64_t code_ptr = 0x5000'0000ULL + static_cast<uint64_t>(service.service_id) * 0x1000;
    const uint64_t data_ptr = 0x7000'0000ULL + static_cast<uint64_t>(service.service_id) * 0x10000;
    const std::optional<uint32_t> allocated = nic_.AllocateEndpointOnVf(
        vf, service.service_id, process->pid, code_ptr, data_ptr, dma_buffer);
    assert(allocated.has_value() && "VF endpoint slice exhausted");
    const uint32_t ep_id = *allocated;
    auto rt = std::make_unique<EndpointRt>();
    rt->endpoint = ep_id;
    rt->service = &service;
    rt->process = process;
    rt->thread = kernel_.AddThread(process, service.name + "-loop" + std::to_string(i));
    rt->dma_buffer = dma_buffer;
    endpoints_[ep_id] = std::move(rt);
    if (i == 0) {
      first = ep_id;
    }
  }
  return first;
}

void LauberhornRuntime::Start() {
  for (int i = 0; i < config_.dispatcher_threads; ++i) {
    // Each channel owns an args region. Cold responses leave through
    // SoftwareTransmit, so it needs no response region.
    const uint64_t args_region = next_dma_buffer_;
    next_dma_buffer_ += kDmaRegionBytes;
    iommu_.Map(args_region, args_region, kDmaRegionBytes);
    DispatcherRt d;
    d.channel = nic_.AllocateKernelChannel(args_region);
    d.thread = kernel_.AddThread(kernel_.kernel_process(),
                                 "lbh-dispatcher-" + std::to_string(i),
                                 /*kernel_priority=*/true);
    dispatchers_.push_back(d);
  }
  nic_.on_need_dispatcher = [this]() { WakeDispatcher(); };
  // The NIC's spare-core count starts from the cores that no thread but a
  // dispatcher occupies; OnPlacement pushes every change after that.
  int spare = 0;
  for (size_t i = 0; i < kernel_.num_cores(); ++i) {
    const Thread* thread = kernel_.core(i).current_thread();
    spare += thread == nullptr || IsDispatcher(thread);
  }
  nic_.NoteSpareCores(spare);
  kernel_.AddSchedListener(this);
  sim_.Schedule(config_.policy_interval, [this]() { PolicyTick(); });
}

void LauberhornRuntime::WakeDispatcher() {
  for (DispatcherRt& d : dispatchers_) {
    if (!d.armed && d.thread->state() == ThreadState::kBlocked && !d.thread->HasWork()) {
      d.armed = true;
      const size_t slot = static_cast<size_t>(&d - dispatchers_.data());
      d.thread->PushWork([this, slot](Core& core) { DispatcherIter(slot, core); });
      kernel_.scheduler().Wake(d.thread);
      if (d.thread->state() == ThreadState::kReady) {
        // No core was free: every one is parked in a user loop. The NIC's
        // load information entitles us to take one back (§1, §5.2).
        RetireVictim();
      }
      return;
    }
  }
}

int LauberhornRuntime::ActiveLoops() const {
  int count = 0;
  for (const auto& [id, rt] : endpoints_) {
    if (rt->in_loop) {
      ++count;
    }
  }
  return count;
}

void LauberhornRuntime::RetireVictim() {
  uint32_t victim = 0;
  double lowest_rate = -1.0;
  bool skipped_cooldown = false;
  for (const auto& [id, rt] : endpoints_) {
    // DispatchBacklog, not QueueDepth: under c-FCFS / JBSQ the endpoint's
    // private queue is empty by design while the service's central queue
    // holds the real backlog — retiring such a core would strand it (§18).
    if (!rt->in_loop || rt->stop_requested || nic_.DispatchBacklog(id) != 0) {
      continue;
    }
    // A loop whose thread is off its core (preempted, or started and still
    // waiting for one) frees no core by retiring. It would take the RETIRE
    // on its first poll once it runs, and its cooldown would then refuse
    // the restart while requests queue on the endpoint.
    if (rt->thread->state() != ThreadState::kRunning) {
      continue;
    }
    if (!governor_.CanChange(id, sim_.Now())) {
      // Recently (re)started: retiring it now is exactly the thrash the
      // cooldown exists to prevent. Prefer a victim outside its window.
      skipped_cooldown = true;
      continue;
    }
    const double rate = nic_.ArrivalRate(id);
    if (lowest_rate < 0.0 || rate < lowest_rate) {
      lowest_rate = rate;
      victim = id;
    }
  }
  if (lowest_rate >= 0.0) {
    Deschedule(victim);
  } else if (skipped_cooldown) {
    governor_.NoteSuppressed();
  }
}

void LauberhornRuntime::PolicyTick() {
  // §5.2: the NIC's load information guides core allocation. Release the
  // coldest parked core when other threads are starving; make sure a
  // dispatcher is armed whenever cold requests are queued.
  if (nic_.ColdQueueDepth() > 0) {
    WakeDispatcher();
  }
  if (kernel_.scheduler().ready_count() > 0) {
    RetireVictim();
  }
  // Scale down: a service holding several cores releases the idlest one once
  // its load no longer justifies it (§5.2: "dynamic scaling of the cores used
  // for RPC based on load").
  // Services go in ascending lowest-endpoint-id order, so which one releases
  // first never depends on where its Process was allocated.
  scale_candidates_.clear();
  for (const auto& [id, rt] : endpoints_) {
    if (!rt->in_loop || rt->stop_requested) {
      continue;
    }
    auto it = std::find_if(scale_candidates_.begin(), scale_candidates_.end(),
                           [&](const ScaleCandidate& c) { return c.process == rt->process; });
    if (it == scale_candidates_.end()) {
      it = scale_candidates_.insert(it, {rt->process, id, id, 0});
    }
    ++it->count;
    it->lowest = std::min(it->lowest, id);
    if (nic_.ArrivalRate(id) < nic_.ArrivalRate(it->idlest)) {
      it->idlest = id;
    }
  }
  std::sort(scale_candidates_.begin(), scale_candidates_.end(),
            [](const ScaleCandidate& a, const ScaleCandidate& b) { return a.lowest < b.lowest; });
  for (const ScaleCandidate& c : scale_candidates_) {
    // The governor consumes the policy's aggregate backlog (§18): a core
    // only counts as idle when neither its private queue nor the service's
    // central queue holds work.
    const bool below = c.count > 1 && nic_.DispatchBacklog(c.idlest) == 0 &&
                       nic_.ArrivalRate(c.idlest) < config_.scale_down_rate_rps;
    // Hysteresis: require `scale.down_ticks` consecutive idle observations,
    // then respect the per-endpoint cooldown, before releasing the core.
    if (!governor_.IdleTick(c.idlest, below)) {
      continue;
    }
    if (!governor_.CanChange(c.idlest, sim_.Now())) {
      governor_.NoteSuppressed();
      continue;
    }
    Deschedule(c.idlest);
    break;  // at most one release per tick
  }
  // Scale up (§18): under a central discipline a backlogged service never
  // spills to the cold path — requests wait in the NIC-side central queue
  // while any member holds a core — so the legacy recruit trigger (cold
  // dispatch waking a dispatcher that pins a core) cannot fire. The governor
  // reads the policy's aggregate backlog instead: a non-empty central queue
  // recruits the lowest-id parked endpoint, one per service per tick.
  std::map<uint32_t, uint32_t> recruit;  // service -> lowest parked endpoint
  for (const auto& [id, rt] : endpoints_) {
    // stop_requested is deliberately not checked: it stays set on a retired
    // endpoint (only loop entry clears it), and a completed retire is
    // exactly the state a recruit reverses. An in-flight retire still has
    // in_loop set, so it is skipped here.
    if (rt->in_loop || rt->service == nullptr) {
      continue;
    }
    const uint32_t service_id = rt->service->service_id;
    if (nic_.CentralQueueDepth(service_id) == 0) {
      continue;
    }
    auto [it, inserted] = recruit.emplace(service_id, id);
    if (!inserted && id < it->second) {
      it->second = id;
    }
  }
  for (const auto& [service_id, id] : recruit) {
    StartUserLoop(id);
  }
  sim_.Schedule(config_.policy_interval, [this]() { PolicyTick(); });
}

void LauberhornRuntime::StartUserLoop(uint32_t endpoint, int core_hint) {
  auto it = endpoints_.find(endpoint);
  assert(it != endpoints_.end());
  EndpointRt& rt = *it->second;
  if (rt.in_loop || rt.thread->HasWork() || rt.thread->state() != ThreadState::kBlocked) {
    return;
  }
  // Respect the core reserve: parked loops must leave room for kernel work
  // (otherwise every cold request pays a full retire handshake first).
  const int max_loops =
      static_cast<int>(kernel_.num_cores()) - config_.reserved_cores;
  if (ActiveLoops() >= max_loops) {
    return;
  }
  if (!governor_.CanChange(endpoint, sim_.Now())) {
    // Just retired (or started): restarting inside the cooldown window is
    // the scale-up half of the thrash loop. Cold requests still flow through
    // the kernel channels meanwhile.
    governor_.NoteSuppressed();
    return;
  }
  governor_.NoteChange(endpoint, sim_.Now());
  rt.in_loop = true;
  rt.stop_requested = false;
  ++stats_.loops_started;
  rt.thread->PushWork([this, &rt](Core& core) {
    // Re-anchor the cooldown at actual loop entry: under core saturation the
    // thread can wait longer than the cooldown for a core, and a cooldown
    // that expires before the loop has run its first iteration lets
    // RetireVictim kill it nanoseconds after entry — exactly the thrash the
    // governor exists to prevent.
    governor_.NoteChange(rt.endpoint, sim_.Now());
    nic_.trace().Emit(sim_.Now(), TraceEvent::kLoopEnter, rt.endpoint,
                      static_cast<uint32_t>(core.index()));
    nic_.ActivateEndpoint(rt.endpoint, core.index());
    LoopIter(rt, core);
  });
  kernel_.scheduler().Wake(rt.thread, core_hint);
}

bool LauberhornRuntime::IsDispatcher(const Thread* thread) const {
  return std::any_of(dispatchers_.begin(), dispatchers_.end(),
                     [thread](const DispatcherRt& d) { return d.thread == thread; });
}

void LauberhornRuntime::OnPlacement(Thread* thread, int core, bool running) {
  if (!IsDispatcher(thread)) {
    nic_.NoteSpareCores(running ? -1 : 1);
  }
  for (const auto& [id, rt] : endpoints_) {
    if (rt->thread == thread) {
      nic_.NoteThreadPlacement(id, core, running);
      return;
    }
  }
}

void LauberhornRuntime::Deschedule(uint32_t endpoint) {
  auto it = endpoints_.find(endpoint);
  assert(it != endpoints_.end());
  governor_.NoteChange(endpoint, sim_.Now());
  it->second->stop_requested = true;
  nic_.RequestRetire(endpoint);
}

void LauberhornRuntime::ExitLoop(EndpointRt& rt, Core& core) {
  rt.in_loop = false;
  ++stats_.loops_exited;
  nic_.trace().Emit(sim_.Now(), TraceEvent::kLoopExit, rt.endpoint,
                    static_cast<uint32_t>(core.index()));
  nic_.DeactivateEndpoint(rt.endpoint);
  kernel_.scheduler().OnWorkDone(core);
}

void LauberhornRuntime::LoopIter(EndpointRt& rt, Core& core) {
  const LineAddr ctrl = nic_.CtrlAddr(rt.endpoint, rt.parity);
  core.BlockOnLoad(ctrl, nic_.line_size(), [this, &rt, &core](std::span<const uint8_t> data) {
    const auto dispatch = DispatchLine::Decode(data);
    if (!dispatch.has_value()) {
      ExitLoop(rt, core);
      return;
    }
    switch (dispatch->kind) {
      case LineKind::kRpcDispatch:
        HandleDispatch(rt, core, *dispatch);
        return;
      case LineKind::kTryAgain:
        if (rt.stop_requested) {
          ExitLoop(rt, core);
        } else {
          // §5.1: re-issue the load; the cost of the whole poll cycle was two
          // coherence messages in 15 ms.
          LoopIter(rt, core);
        }
        return;
      case LineKind::kRetire:
        ExitLoop(rt, core);
        return;
      default:
        ExitLoop(rt, core);
        return;
    }
  });
}

void LauberhornRuntime::GatherArgs(uint32_t line_owner_endpoint, int parity, Core& core,
                                   const DispatchLine& dispatch, ArgsFn done) {
  if (dispatch.via_dma) {
    // Arguments were DMA'd into the endpoint's host buffer; the handler reads
    // them from memory (charged as copy/touch cost).
    const std::vector<uint8_t> args = memory_.ReadBytes(dispatch.data_ptr, dispatch.arg_len);
    done(args, kernel_.costs().CopyCost(dispatch.arg_len));
    return;
  }
  if (dispatch.aux_lines == 0) {
    if (dispatch.arg_len <= dispatch.inline_args.size()) {
      done(std::span<const uint8_t>(dispatch.inline_args.data(), dispatch.arg_len), 0);
      return;
    }
    // A line that claims more bytes than it carries: zero-fill the rest.
    std::vector<uint8_t> args(dispatch.inline_args.begin(), dispatch.inline_args.end());
    args.resize(dispatch.arg_len);
    done(args, 0);
    return;
  }
  // Stream the AUX lines (issued back to back; they complete in parallel).
  const size_t aux_count = dispatch.aux_lines;
  auto parts = std::make_shared<std::vector<std::vector<uint8_t>>>(aux_count);
  auto pending = std::make_shared<size_t>(aux_count);
  auto base = std::make_shared<std::vector<uint8_t>>(dispatch.inline_args.begin(),
                                                     dispatch.inline_args.end());
  auto cb = std::make_shared<ArgsFn>(std::move(done));
  const uint32_t arg_len = dispatch.arg_len;
  for (size_t i = 0; i < aux_count; ++i) {
    core.cache().LoadThrough(
        nic_.AuxAddr(line_owner_endpoint, parity, i), nic_.line_size(),
        [i, parts, pending, base, cb, arg_len](std::span<const uint8_t> line) {
          (*parts)[i].assign(line.begin(), line.end());
          if (--*pending == 0) {
            std::vector<uint8_t> full = std::move(*base);
            for (auto& part : *parts) {
              full.insert(full.end(), part.begin(), part.end());
            }
            full.resize(arg_len);
            (*cb)(full, 0);
          }
        });
  }
}

void LauberhornRuntime::IssueNested(Core& core, const MethodDef& method,
                                    RpcMessage response, std::vector<WireValue> values,
                                    Function<void(RpcMessage, Duration)> done) {
  // Phase 1: the handler body up to the nested call.
  const Duration phase1 = config_.handler_entry + method.service_time(values);
  core.Run(phase1, CoreMode::kUser, [this, &core, &method, response = std::move(response),
                                     values = std::move(values),
                                     done = std::move(done)]() mutable {
    const MethodDef::NestedCall call = method.nested_call(values);
    const auto continuation = nic_.AllocateContinuation();
    if (!continuation.has_value()) {
      ++stats_.nested_failed;
      response.status = RpcStatus::kInternal;  // continuation pool exhausted
      done(std::move(response), 0);
      return;
    }
    ++stats_.nested_issued;
    RpcMessage nested;
    nested.kind = MessageKind::kRequest;
    nested.service_id = call.service_id;
    nested.method_id = call.method_id;
    nested.request_id = 0x8000'0000'0000'0000ULL |
                        (static_cast<uint64_t>(config_.machine_index) << 40) |
                        next_nested_id_++;
    MarshalArgs(call.request_sig, call.args, nested.payload);
    nic_.ClientTransmit(*continuation, call.dst_ip, call.dst_port, std::move(nested));

    // Park on the continuation's control line for the reply (§6: "a dedicated
    // end-point for an RPC reply"). TRYAGAIN re-parks until it arrives, for
    // at most one TRYAGAIN deadline: a reply still missing by then is lost
    // (a NIC reset wipes a response the backend had not yet sent), so the
    // call fails instead of holding the core and the continuation forever.
    // `done` fires once but the park lambda re-arms on TRYAGAIN, so the
    // (move-only) continuation is shared across re-parks.
    const SimTime reply_deadline = sim_.Now() + nic_.config().params.tryagain_timeout;
    auto done_sh = std::make_shared<Function<void(RpcMessage, Duration)>>(std::move(done));
    auto park = std::make_shared<Callback>();
    *park = [this, &core, continuation, call, values = std::move(values),
             response = std::move(response), done_sh, park, reply_deadline]() mutable {
      core.BlockOnLoad(
          nic_.CtrlAddr(*continuation, 0), nic_.line_size(),
          [this, &core, continuation, call, values, response, done_sh, park,
           reply_deadline](std::span<const uint8_t> data) mutable {
            const auto reply_line = DispatchLine::Decode(data);
            if (reply_line.has_value() && reply_line->kind == LineKind::kTryAgain &&
                sim_.Now() < reply_deadline) {
              (*park)();
              return;
            }
            if (!reply_line.has_value() ||
                reply_line->kind != LineKind::kRpcDispatch) {
              nic_.FreeContinuation(*continuation);
              ++stats_.nested_failed;
              response.status = RpcStatus::kInternal;
              (*done_sh)(std::move(response), 0);
              return;
            }
            GatherArgs(*continuation, 0, core, *reply_line,
                       [this, continuation, call, values, response,
                        done_sh](std::span<const uint8_t> reply_bytes,
                                 Duration extra) mutable {
                         nic_.FreeContinuation(*continuation);
                         std::vector<WireValue> reply_values;
                         const MethodDef* method =
                             services_.Find(response.service_id) != nullptr
                                 ? services_.Find(response.service_id)
                                       ->FindMethod(response.method_id)
                                 : nullptr;
                         if (!UnmarshalArgs(call.response_sig, reply_bytes,
                                            reply_values) ||
                             method == nullptr) {
                           response.status = RpcStatus::kInternal;
                           (*done_sh)(std::move(response), extra);
                           return;
                         }
                         const std::vector<WireValue> result =
                             method->nested_finish(values, reply_values);
                         if (!MarshalArgs(method->response_sig, result,
                                          response.payload)) {
                           response.status = RpcStatus::kInternal;
                         }
                         // Phase 2 (finish) is charged by the caller.
                         (*done_sh)(std::move(response), extra + config_.handler_entry);
                       });
          });
    };
    (*park)();
  });
}

void LauberhornRuntime::HandleDispatch(EndpointRt& rt, Core& core,
                                       const DispatchLine& dispatch) {
  // Only the ids travel on: the capture stays inside Function's inline buffer.
  GatherArgs(rt.endpoint, rt.parity, core, dispatch,
             [this, &rt, &core, service_id = dispatch.service_id,
              method_id = dispatch.method_id, request_id = dispatch.request_id](
                 std::span<const uint8_t> args, Duration extra_cost) {
               if (spans_ != nullptr) {
                 spans_->Record(request_id, SpanStage::kHandlerStart, sim_.Now());
               }
               const MethodDef* method = rt.service->FindMethod(method_id);
               RpcMessage response = ResponseHeader(service_id, method_id, request_id);
               std::vector<WireValue> values;
               if (method != nullptr && method->has_nested_call() &&
                   UnmarshalArgs(method->request_sig, args, values)) {
                 IssueNested(core, *method, std::move(response), std::move(values),
                             [this, &rt, &core, request_id](RpcMessage nested_response,
                                                            Duration finish_cost) {
                               WriteResponse(rt, core, request_id,
                                             std::move(nested_response), finish_cost);
                             });
                 return;
               }
               // The NIC already unmarshalled/validated: decoding here is
               // free (args arrive laid out in registers/cache lines).
               const Duration user_cost = config_.handler_entry + extra_cost +
                                          InvokeMethod(method, args, response);
               WriteResponse(rt, core, request_id, std::move(response), user_cost);
             });
}

void LauberhornRuntime::WriteResponse(EndpointRt& rt, Core& core, uint64_t request_id,
                                      RpcMessage response, Duration user_cost) {
  core.Run(user_cost, CoreMode::kUser, [this, &rt, &core, request_id,
                                        response = std::move(response)]() mutable {
    if (spans_ != nullptr) {
      spans_->Record(request_id, SpanStage::kHandlerEnd, sim_.Now());
    }
    ResponseLine line;
    line.status = static_cast<uint16_t>(response.status);
    line.resp_len = static_cast<uint32_t>(response.payload.size());
    line.request_id = response.request_id;

    const size_t line_size = nic_.line_size();
    const size_t inline_cap = ResponseLine::InlineCapacity(line_size);
    const size_t aux_cap = nic_.AuxCapacityBytes();
    const LauberhornParams& params = nic_.config().params;
    bool via_dma = false;
    switch (nic_.config().large_policy) {
      case LargeTransferPolicy::kForceDma:
        via_dma = response.payload.size() > inline_cap;
        break;
      case LargeTransferPolicy::kForceCacheline:
        via_dma = false;
        break;
      case LargeTransferPolicy::kAuto:
        via_dma = response.payload.size() > params.dma_fallback_bytes ||
                  response.payload.size() > inline_cap + aux_cap;
        break;
    }
    if (via_dma && rt.dma_buffer == 0) {
      via_dma = false;
    }

    const LineAddr ctrl = nic_.CtrlAddr(rt.endpoint, rt.parity);
    auto continue_loop = [this, &rt, &core]() {
      rt.parity ^= 1;  // the next request arrives on the other control line
      LoopIter(rt, core);
    };

    if (via_dma) {
      line.via_dma = true;
      // Copy the payload into the host DMA buffer, then store the control line.
      memory_.WriteBytes(rt.dma_buffer + DmaResponseOffset(rt.parity), response.payload);
      const Duration copy_cost = kernel_.costs().CopyCost(response.payload.size());
      core.Run(copy_cost, CoreMode::kUser, [this, &rt, &core, line, ctrl,
                                            continue_loop]() mutable {
        core.cache().Store(ctrl, line.Encode(nic_.line_size()),
                           [continue_loop]() { continue_loop(); });
      });
      ++stats_.rpcs_hot;
      return;
    }

    const size_t inline_bytes = std::min(inline_cap, response.payload.size());
    line.inline_payload.assign(response.payload.begin(),
                               response.payload.begin() + inline_bytes);
    size_t remaining = response.payload.size() - inline_bytes;
    const size_t aux_count = (remaining + line_size - 1) / line_size;
    assert(aux_count <= params.aux_lines && "response exceeds AUX capacity");
    line.aux_lines = static_cast<uint8_t>(aux_count);

    if (params.posted_responses) {
      // Ablation: push the response with posted uncached writes; the NIC's
      // later fetch finds no cached copy and uses its own (just-written)
      // line store — no RFO, no probe.
      const std::span<const uint8_t> payload = response.payload;
      size_t cursor = inline_bytes;
      for (size_t i = 0; i < aux_count; ++i) {
        const size_t chunk = std::min(remaining, line_size);
        core.cache().StoreThrough(nic_.AuxAddr(rt.endpoint, rt.parity, i),
                                  payload.subspan(cursor, chunk));
        cursor += chunk;
        remaining -= chunk;
      }
      core.cache().StoreThrough(ctrl, line.Encode(line_size));
      const Duration cpu_cost =
          static_cast<Duration>(1 + aux_count) * params.posted_write_cost;
      core.Run(cpu_cost, CoreMode::kUser, continue_loop);
      ++stats_.rpcs_hot;
      return;
    }

    // Fig. 4 path: cached stores the NIC pulls back with fetch-exclusive.
    // Issue all stores back to back (they proceed in parallel on distinct
    // lines); continue once every store has completed.
    rt.stores_pending = 1 + aux_count;
    auto on_store = [&rt, continue_loop]() {
      if (--rt.stores_pending == 0) {
        continue_loop();
      }
    };
    size_t cursor = inline_bytes;
    for (size_t i = 0; i < aux_count; ++i) {
      const size_t chunk = std::min(remaining, line_size);
      LineData aux(line_size, 0);
      std::copy_n(response.payload.begin() + cursor, chunk, aux.begin());
      cursor += chunk;
      remaining -= chunk;
      core.cache().Store(nic_.AuxAddr(rt.endpoint, rt.parity, i), aux, on_store);
    }
    core.cache().Store(ctrl, line.Encode(line_size), on_store);
    ++stats_.rpcs_hot;
  });
}

void LauberhornRuntime::DispatcherIter(size_t slot, Core& core) {
  DispatcherRt& d = dispatchers_[slot];
  const LineAddr ctrl = nic_.CtrlAddr(d.channel, 0);
  core.BlockOnLoad(ctrl, nic_.line_size(), [this, slot, &core](std::span<const uint8_t> data) {
    DispatcherRt& d = dispatchers_[slot];
    const auto dispatch = DispatchLine::Decode(data);
    if (!dispatch.has_value() || dispatch->kind == LineKind::kTryAgain ||
        dispatch->kind == LineKind::kRetire) {
      // Nothing to do: yield the core back to the scheduler (§5.2: the
      // kernel thread periodically calls schedule()).
      d.armed = false;
      kernel_.scheduler().OnWorkDone(core);
      return;
    }
    if (dispatch->kind != LineKind::kKernelDispatch) {
      d.armed = false;
      kernel_.scheduler().OnWorkDone(core);
      return;
    }
    GatherArgs(d.channel, 0, core, *dispatch,
               [this, slot, &core, dispatch = *dispatch](std::span<const uint8_t> args,
                                                         Duration extra) {
                 HandleColdDispatch(slot, core, dispatch, args);
                 (void)extra;
               });
  });
}

void LauberhornRuntime::HandleColdDispatch(size_t slot, Core& core,
                                           const DispatchLine& dispatch,
                                           std::span<const uint8_t> args) {
  auto it = endpoints_.find(dispatch.endpoint_id);
  if (it == endpoints_.end()) {
    RpcMessage err;
    err.kind = MessageKind::kResponse;
    err.status = RpcStatus::kNoSuchService;
    err.request_id = dispatch.request_id;
    nic_.SoftwareTransmit(dispatch.request_id, std::move(err));
    dispatchers_[slot].armed = false;
    kernel_.scheduler().OnWorkDone(core);
    return;
  }
  EndpointRt& rt = *it->second;
  const OsCostModel& costs = kernel_.costs();

  // Kernel-side demux + context switch into the target process.
  core.Run(config_.cold_handling_overhead + costs.context_switch, CoreMode::kKernel,
           [this, slot, &core, &rt,
            header = ResponseHeader(dispatch.service_id, dispatch.method_id,
                                    dispatch.request_id),
            args = std::vector<uint8_t>(args.begin(), args.end())]() mutable {
             core.set_loaded_pid(rt.process->pid);
             if (spans_ != nullptr) {
               spans_->Record(header.request_id, SpanStage::kHandlerStart,
                              sim_.Now());
             }
             const MethodDef* method = rt.service->FindMethod(header.method_id);
             std::vector<WireValue> values;
             if (method != nullptr && method->has_nested_call() &&
                 UnmarshalArgs(method->request_sig, args, values)) {
               IssueNested(core, *method, std::move(header), std::move(values),
                           [this, slot, &core, &rt](RpcMessage nested_response,
                                                    Duration finish_cost) {
                             FinishColdDispatch(slot, core, rt, std::move(nested_response),
                                                finish_cost);
                           });
               return;
             }
             RpcMessage response = std::move(header);
             const Duration user_cost =
                 config_.handler_entry + InvokeMethod(method, args, response);
             FinishColdDispatch(slot, core, rt, std::move(response), user_cost);
           });
}

void LauberhornRuntime::FinishColdDispatch(size_t slot, Core& core, EndpointRt& rt,
                                           RpcMessage response, Duration user_cost) {
  core.Run(user_cost, CoreMode::kUser,
           [this, slot, &core, &rt, response = std::move(response)]() mutable {
             if (spans_ != nullptr) {
               spans_->Record(response.request_id, SpanStage::kHandlerEnd, sim_.Now());
             }
             nic_.SoftwareTransmit(response.request_id, std::move(response));
             ++stats_.rpcs_cold;
             dispatchers_[slot].armed = false;
             kernel_.scheduler().OnWorkDone(core);
             // Fig. 5 (1): the core stays with the process in its user-mode
             // loop — but only for endpoints that are actually hot; one-off
             // invocations stay on the cold path (no churn).
             // DispatchBacklog: central-queue work (c-FCFS / JBSQ) also
             // justifies keeping the core in the hot loop (§18).
             if (nic_.DispatchBacklog(rt.endpoint) > 0 ||
                 nic_.ArrivalRate(rt.endpoint) > config_.hot_rate_threshold_rps) {
               StartUserLoop(rt.endpoint, core.index());
             }
           });
}

}  // namespace lauberhorn
