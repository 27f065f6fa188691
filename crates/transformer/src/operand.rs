//! The shard operand: how a layer reads its executed slices' weights.

use sti_tensor::Matrix;

use crate::weights::{LayerWeights, ShardWeights};

/// The weights of one layer's executed slices, handed out half a shard at a
/// time, in the order the layer reads them: attention asks for shard `i`'s
/// attention half when it reaches slice `i`, and the FFN asks for its FFN
/// half when it reaches it.
///
/// The halves are disjoint ranges of the shard's flat weight group
/// ([`ShardWeights::flatten`]): `[Q | K | V]` and `o` are its first
/// `4·d·d/M` weights, `ffn1` and `ffn2` the rest. So an operand that decodes
/// a coded shard on demand decodes each weight exactly once, and can hold a
/// single shard's worth of weights however wide the layer is. Every kernel
/// reads the same bits in the same order whichever operand supplies them,
/// so the layer's output does not depend on the operand.
///
/// Decoded shards implement it as any borrowed slice of shard references:
/// `layer_forward(&x, &refs, …)` takes a `&Vec<&ShardWeights>`, a
/// `&[&ShardWeights]` or a `&[&ShardWeights; N]` as it is, and an owned
/// `Vec<&ShardWeights>` too. A whole layer, `&LayerWeights`, is every one
/// of its slices in order, with no list of references built.
pub trait ShardOperand {
    /// The number of executed slices (the layer's width).
    fn width(&self) -> usize;

    /// Slice `i`'s attention half: the packed `d × 3·d/M` `[Q | K | V]`
    /// operand and the `d/M × d` output projection.
    fn attention(&mut self, i: usize) -> (&Matrix, &Matrix);

    /// Slice `i`'s FFN half: `ffn1` (`d × d_ff/M`) and `ffn2`
    /// (`d_ff/M × d`).
    fn ffn(&mut self, i: usize) -> (&Matrix, &Matrix);
}

impl<'a, T: AsRef<[&'a ShardWeights]> + ?Sized> ShardOperand for &'a T {
    fn width(&self) -> usize {
        (**self).as_ref().len()
    }

    fn attention(&mut self, i: usize) -> (&Matrix, &Matrix) {
        let shard = (**self).as_ref()[i];
        (&shard.qkv, &shard.o)
    }

    fn ffn(&mut self, i: usize) -> (&Matrix, &Matrix) {
        let shard = (**self).as_ref()[i];
        (&shard.ffn1, &shard.ffn2)
    }
}

impl ShardOperand for Vec<&ShardWeights> {
    fn width(&self) -> usize {
        self.len()
    }

    fn attention(&mut self, i: usize) -> (&Matrix, &Matrix) {
        (&self[i].qkv, &self[i].o)
    }

    fn ffn(&mut self, i: usize) -> (&Matrix, &Matrix) {
        (&self[i].ffn1, &self[i].ffn2)
    }
}

impl ShardOperand for &LayerWeights {
    fn width(&self) -> usize {
        self.shards.len()
    }

    fn attention(&mut self, i: usize) -> (&Matrix, &Matrix) {
        (&self.shards[i].qkv, &self.shards[i].o)
    }

    fn ffn(&mut self, i: usize) -> (&Matrix, &Matrix) {
        (&self.shards[i].ffn1, &self.shards[i].ffn2)
    }
}

impl<S: ShardOperand + ?Sized> ShardOperand for &mut S {
    fn width(&self) -> usize {
        (**self).width()
    }

    fn attention(&mut self, i: usize) -> (&Matrix, &Matrix) {
        (**self).attention(i)
    }

    fn ffn(&mut self, i: usize) -> (&Matrix, &Matrix) {
        (**self).ffn(i)
    }
}
