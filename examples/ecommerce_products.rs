//! "Most expensive products" — the paper's introductory example: top-k
//! over key+payload records, with the planner choosing the algorithm.
//!
//! A product catalog is scored by price; the query keeps the 20 priciest
//! items in a category. We run top-k on `(price, product_id)` pairs —
//! exactly the `(key, id)` layout Section 6.6 recommends — and let the
//! Section 7 cost-model planner pick between bitonic top-k and radix
//! select before executing its choice.
//!
//! ```sh
//! cargo run --release --example ecommerce_products
//! ```

use gpu_topk::datagen::{Kv, TopKItem};
use gpu_topk::simt::Device;
use gpu_topk::topk::TopKRequest;
use gpu_topk::topk_costmodel::{self as costmodel, ReductionProfile};
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};

fn main() {
    let n = 500_000;
    let k = 20;
    let mut rng = SmallRng::seed_from_u64(7);

    // a catalog with log-normal-ish prices in cents
    let products: Vec<Kv<f32>> = (0..n)
        .map(|id| {
            let base: f32 = rng.gen_range(2.0..6.0);
            let price = 10f32.powf(base) + rng.gen_range(0.0..0.99);
            Kv::new(price, id as u32)
        })
        .collect();

    let dev = Device::titan_x();
    let input = dev.upload(&products);

    // ask the planner which algorithm to run
    let choice = costmodel::recommend(
        dev.spec(),
        n,
        k,
        Kv::<f32>::SIZE_BYTES,
        &ReductionProfile::UniformFloats,
    );
    println!(
        "planner: {:?} (predicted {:.1} µs vs {:.1} µs)",
        choice.algorithm,
        choice.predicted_seconds * 1e6,
        choice.alternative_seconds * 1e6
    );

    let result = TopKRequest::largest(k)
        .with_alg(choice.algorithm.into())
        .run(&dev, &input)
        .unwrap();

    println!(
        "\n{} most expensive products ({} simulated):",
        k, result.time
    );
    println!("{:>4}  {:>12}  {:>10}", "#", "price ($)", "product id");
    for (rank, item) in result.items.iter().enumerate() {
        println!(
            "{:>4}  {:>12.2}  {:>10}",
            rank + 1,
            item.key / 100.0,
            item.value
        );
    }

    // sanity: descending prices
    assert!(result.items.windows(2).all(|w| w[0].key >= w[1].key));
}
