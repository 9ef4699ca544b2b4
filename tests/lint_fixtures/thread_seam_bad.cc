// Violates thread-seam: spawns and detaches a thread, and launches an
// async task, outside the approved concurrency seams.
#include <future>
#include <thread>

void
fireAndForget()
{
    std::thread worker([] {});
    worker.detach();
    auto task = std::async(std::launch::async, [] {});
}
